"""Independent brute-force oracles used to validate the production code.

These deliberately avoid the vectorized implementations they check: dense
matrices are materialized, math is done in scalar loops, and ranks are
computed by counting comparisons. The single-slice bilinear form checks
LowRankLayer one slice at a time (the layer runs all k slices as two
rank-major GEMMs and sums the rank with one einsum), and the forward-only
objectives restate the paper's loss formulas that the joint loss must match.
The dense Adagrad step and the per-direction encoder are the unpacked forms
of the flat-buffer, touched-rows step and the stacked LSTM, which must equal
them bit for bit; the dense table gradient and accumulator views unpack the
store's row-sparse table state for them. The file writers at the end invert
the loaders for round-trip tests, and `checkpoint_bytes` is the in-memory
checkpoint format that tests compare the streamed save with.
"""

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from eventemb.checkpoint import Checkpoint, _serialized_parts
from eventemb.data import (
    AnnotatedExample, EventTuple, HardSimInstance, TransitiveSimInstance, format_event,
)
from eventemb.ops import sigmoid
from eventemb.params import TABLE


def cosine(u, v, eps=1e-8):
    """Cosine of two vectors with an epsilon-guarded denominator, one pair at
    a time; 0.0 when either vector is all-zero."""
    return cosine_grads(u, v, eps)[0]


def cosine_grads(u, v, eps=1e-8):
    """Cosine of two vectors plus its gradients w.r.t. both (zero for an
    all-zero vector), written with np.dot and np.linalg.norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine: length mismatch {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    denom = nu * nv + eps
    c = float(np.dot(u, v) / denom)
    return c, (v - c * nv * u / nu) / denom, (u - c * nu * v / nv) / denom


def dense_slice_matrix(left, right, diag):
    """Materialize left @ right + diag(diag) with explicit loops."""
    d, n = left.shape
    m = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for r in range(n):
                acc += left[i, r] * right[r, j]
            m[i, j] = acc
        m[i, i] += diag[i]
    return m


def dense_bilinear(a, m, p):
    """a' M p as a double scalar loop."""
    total = 0.0
    for i in range(len(a)):
        for j in range(len(p)):
            total += a[i] * m[i, j] * p[j]
    return total


def dense_compose(x, y, mats, w, b):
    """tanh of per-slice dense bilinear values plus the affine part."""
    k = len(mats)
    xy = list(x) + list(y)
    out = np.zeros(k)
    for i in range(k):
        affine = 0.0
        for j, value in enumerate(xy):
            affine += w[i, j] * value
        out[i] = math.tanh(dense_bilinear(x, mats[i], y) + affine + b[i])
    return out


def scalar_mean_rows(rows):
    n = len(rows)
    dim = len(rows[0])
    out = np.zeros(dim)
    for j in range(dim):
        acc = 0.0
        for row in rows:
            acc += row[j]
        out[j] = acc / n
    return out


def average_argument(words, table, vocab):
    """Arithmetic mean of the word rows; unknown words use the unknown row."""
    if not words:
        raise ValueError("average_argument: empty word list")
    rows = table[[vocab.index(w) for w in words]]
    return rows.mean(axis=0)


def scalar_lstm_step(x, h_prev, c_prev, w, b):
    """One LSTM transition evaluated entry by entry.

    w is (4h, d+h) and b is (4h,), gates stacked by rows in the order i, f,
    o, c: gate g, unit r reads row g*h + r.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = list(x) + list(h_prev)
    h_size = len(h_prev)
    gates = {}
    for g, gate in enumerate(("i", "f", "o", "c")):
        activ = []
        for r in range(h_size):
            row = g * h_size + r
            acc = b[row]
            for col, value in enumerate(z):
                acc += w[row, col] * value
            activ.append(math.tanh(acc) if gate == "c" else sig(acc))
        gates[gate] = activ
    c = np.zeros(h_size)
    h = np.zeros(h_size)
    for r in range(h_size):
        c[r] = gates["f"][r] * c_prev[r] + gates["i"][r] * gates["c"][r]
        h[r] = gates["o"][r] * math.tanh(c[r])
    return h, c


def counting_ranks(values):
    """1-based average ranks computed by counting comparisons (O(n^2))."""
    ranks = []
    for x in values:
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def spearman_bruteforce(pred, gold):
    """Rank both vectors by counting, then textbook Pearson."""
    rp = counting_ranks(list(pred))
    rg = counting_ranks(list(gold))
    n = len(rp)
    mp = sum(rp) / n
    mg = sum(rg) / n
    num = sum((a - mp) * (b - mg) for a, b in zip(rp, rg))
    den = math.sqrt(
        sum((a - mp) ** 2 for a in rp) * sum((b - mg) ** 2 for b in rg)
    )
    return num / den


def softmax_scalar(logits):
    biggest = max(logits)
    exps = [math.exp(v - biggest) for v in logits]
    total = sum(exps)
    return [v / total for v in exps]


def polarity_by_counting(words, lexicon):
    """Count positive and negative hits separately, then compare."""
    positives = sum(1 for w in words if lexicon.get(w, 0) == 1)
    negatives = sum(1 for w in words if lexicon.get(w, 0) == -1)
    if positives > negatives:
        return 1
    if negatives > positives:
        return -1
    return None


def hard_sim_by_counting(sim_scores, dissim_scores):
    """Accuracy from precomputed cosine pairs, strict comparison."""
    wins = 0
    for s, d in zip(sim_scores, dissim_scores):
        if s > d:
            wins += 1
    return wins / len(sim_scores)


@dataclass(frozen=True)
class LowRankSlice:
    """One bilinear slice stored in factored form: left @ right + diag(diag).

    left is (d, n), right is (n, d), diag is (d,), with 1 <= n <= d.
    """

    left: np.ndarray
    right: np.ndarray
    diag: np.ndarray

    def __post_init__(self) -> None:
        d, n = self.left.shape
        if not (1 <= n <= d):
            raise ValueError(f"low-rank slice: rank n={n} must satisfy 1 <= n <= d={d}")
        if self.right.shape != (n, d):
            raise ValueError(
                f"low-rank slice: right factor is {self.right.shape}, expected {(n, d)}"
            )
        if self.diag.shape != (d,):
            raise ValueError(
                f"low-rank slice: diag is {self.diag.shape}, expected {(d,)}"
            )

    @property
    def d(self) -> int:
        return self.left.shape[0]


def layer_slice(layer, i):
    """Slice i of a LowRankLayer as views of the layer's parameter arrays."""
    return LowRankSlice(layer.left[:, :, i], layer.right[:, i, :], layer.diag[i])


def bilinear_lowrank(a, p, slc):
    """a' (left @ right + diag) p, evaluated factored in O(dn).

    Computed as (a' left)(right p) + sum_i a_i diag_i p_i, one slice at a
    time, where LowRankLayer multiplies all k slices' factors in two GEMMs
    and sums their rank products in one einsum.
    """
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if a.shape != (slc.d,):
        raise ValueError(f"bilinear_lowrank: a has shape {a.shape}, expected {(slc.d,)}")
    if p.shape != (slc.d,):
        raise ValueError(f"bilinear_lowrank: p has shape {p.shape}, expected {(slc.d,)}")
    u = a @ slc.left
    v = slc.right @ p
    return float(u @ v + np.dot(a * slc.diag, p))


def bilinear_lowrank_grads(a, p, slc):
    """Forward value plus gradients w.r.t. a, p, left, right, diag."""
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    u = a @ slc.left
    v = slc.right @ p
    value = float(u @ v + np.dot(a * slc.diag, p))
    grads = {
        "a": slc.left @ v + slc.diag * p,
        "p": slc.right.T @ u + slc.diag * a,
        "left": np.outer(a, v),
        "right": np.outer(u, p),
        "diag": a * p,
    }
    return value, grads


def margin_objective(composer, example, corrupted, lambda_l2):
    """Forward-only `ntn` objective: max(0, 1 - u.C + u.C_r) + lambda ||Phi||^2
    of a coded example and its corrupted event's ids.

    Written out from the paper's formula over the composer's embeddings, so
    the `ntn` preset of the joint loss can be checked against it bit for bit.
    As in joint_loss, both embeddings come from one two-row composer call and
    are scored as C @ u: a one-row call, or u @ c, can differ in the last bits.
    """
    ids = np.concatenate((example.ids, corrupted))
    sizes = np.concatenate((example.sizes, example.sizes))
    g_e, g_r = (float(g) for g in composer.embed(ids, sizes)[0] @ composer.u)
    return max(0.0, 1.0 - g_e + g_r) + composer.regularization(lambda_l2)


def intent_loss(v_e, v_i, v_i_neg):
    """Forward-only intent hinge: max(0, 1 - cos(v_e, v_i) + cos(v_e, v_i_neg))."""
    # grouped so that identical positive/negative intents give exactly 1.0
    return max(0.0, 1.0 - (cosine(v_e, v_i) - cosine(v_e, v_i_neg)))


def dense_table_grad(store):
    """The table gradient as one dense (|V|, d) array: the store's recorded
    contributions summed from +0.0 in call order, one `np.add.at` each."""
    g = np.zeros(store.params[TABLE].shape)
    for ids, values in store.table_grads:
        np.add.at(g, ids, values)
    return g


def dense_table_accums(store):
    """The table accumulator as one dense (|V|, d) array, zero in every row
    no step has touched."""
    acc = np.zeros(store.params[TABLE].shape)
    acc[store.table_rows] = store.table_accums
    return acc


def record_table_grad(store, g):
    """Record a dense (|V|, d) table gradient as one contribution to every row."""
    store.table_grads.append((np.arange(len(g)), g))


def dense_adagrad_step(store, table_accums, learning_rate, scale, eps):
    """The Adagrad step swept over every array whole, one array at a time,
    the table included. The table's gradient is `dense_table_grad` and its
    accumulator `table_accums`, a dense (|V|, d) array the caller keeps."""
    arrays = {TABLE: (dense_table_grad(store), table_accums)}
    store.table_grads.clear()
    arrays.update((name, (store.grads[name], store.accums[name])) for name in store.grads)
    for name, (g, acc) in arrays.items():
        g *= scale
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter '{name}'")
        acc += g * g
        store.params[name][...] -= learning_rate * g / (np.sqrt(acc) + eps)
        g[...] = 0.0


def masked_sigmoid(x):
    """The logistic function as two masked branches, each evaluated only where
    its exp cannot overflow: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def zero_grads(store):
    """Zero every gradient buffer of a ParameterStore in place and drop its
    recorded table contributions."""
    for g in store.grads.values():
        g[...] = 0.0
    store.table_grads.clear()


def snapshot_grads(store):
    """Copies of all gradient buffers of a ParameterStore, the table's as
    `dense_table_grad`, for grad_check."""
    grads = {name: g.copy() for name, g in store.grads.items()}
    grads[TABLE] = dense_table_grad(store)
    return grads


def load_word_vectors_by_line(path):
    """The word-vector reader as one `float()` per entry and one row per line:
    the per-line parser the bulk `load_word_vectors` replaced, which must give
    a bit-equal vocabulary and table."""
    from eventemb.data import UNKNOWN_INDEX, UNKNOWN_TOKEN, DataError, Vocabulary

    words, rows, linenos = [], [], []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise DataError(path, lineno, "expected a word followed by vector entries")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(path, lineno, f"bad vector entry: {exc}") from exc
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(path, lineno, f"vector has {vec.size} entries, expected {dim}")
            words.append(parts[0].lower())
            rows.append(vec)
            linenos.append(lineno)
    if dim is None:
        raise DataError(path, 0, "no word vectors found")
    first = {UNKNOWN_TOKEN: 0}
    for word, lineno in zip(words, linenos):
        if word in first:
            where = f"line {first[word]}" if first[word] else "the reserved unknown word"
            raise DataError(path, lineno, f"word {word!r} repeats {where}")
        first[word] = lineno
    for row, lineno in zip(rows, linenos):
        if not np.isfinite(row).all():
            raise DataError(path, lineno, "non-finite vector entry")
    table = np.empty((len(words) + 1, dim), dtype=np.float64)
    table[1:] = rows
    # the reader's unknown-row rule: the mean, of pre-scaled entries in a
    # column whose plain sum overflows
    with np.errstate(over="ignore"):
        mean = np.mean(rows, axis=0)
    over = ~np.isfinite(mean)
    mean[over] = (table[1:, over] / len(rows)).sum(axis=0)
    table[UNKNOWN_INDEX] = mean
    return Vocabulary().extended(words), table


def _cell_step(w, b, x, h_prev, c_prev):
    """One direction's LSTM step on (B, d) rows: one (B, d+h) @ (d+h, 4h) GEMM."""
    h = b.shape[0] // 4
    gates = np.concatenate((x, h_prev), axis=1) @ w.T + b
    gates[:, : 3 * h] = sigmoid(gates[:, : 3 * h])
    gates[:, 3 * h :] = np.tanh(gates[:, 3 * h :])
    c = gates[:, h : 2 * h] * c_prev + gates[:, :h] * gates[:, 3 * h :]
    return gates[:, 2 * h : 3 * h] * np.tanh(c), c, gates


def _cell_step_backward(w, g_w, g_b, dh, dc, x, h_prev, c_prev, gates, c):
    """Backward of `_cell_step`, accumulating into the direction's gradients."""
    h = g_b.shape[0] // 4
    gi, gf, go, gc = (gates[:, j * h : (j + 1) * h] for j in range(4))
    tanh_c = np.tanh(c)
    dc_total = dc + dh * go * (1.0 - tanh_c * tanh_c)
    da = np.concatenate((
        dc_total * gc * gi * (1.0 - gi),
        dc_total * c_prev * gf * (1.0 - gf),
        dh * tanh_c * go * (1.0 - go),
        dc_total * gi * (1.0 - gc * gc),
    ), axis=1)
    g_w += da.T @ np.concatenate((x, h_prev), axis=1)
    g_b += da.sum(axis=0)
    dz = da @ w
    d = x.shape[1]
    return dz[:, :d], dz[:, d:], dc_total * gf


def per_direction_encode(encoder, sentences):
    """`BiLstmEncoder.encode` with each direction stepped on its own: one
    (B, d+h) GEMM per step and direction, over the same exact-length groups."""
    groups = {}
    for s, ids in enumerate(sentences):
        groups.setdefault(len(ids), []).append(s)
    h = encoder.h
    out = np.zeros((len(sentences), 2 * h))
    cache = []
    for rows in groups.values():
        idx = np.array([sentences[s] for s in rows]).T
        tokens = np.stack((idx, idx[::-1]))
        steps, size = idx.shape
        hs = np.zeros((2, steps + 1, size, h))
        cs = np.zeros((2, steps + 1, size, h))
        gates = np.empty((2, steps, size, 4 * h))
        for t in range(steps):
            for r in range(2):
                x = encoder.embeddings[tokens[r, t]]
                hs[r, t + 1], cs[r, t + 1], gates[r, t] = _cell_step(
                    encoder.w[r], encoder.b[r], x, hs[r, t], cs[r, t]
                )
        out[rows] = np.concatenate(hs[:, -1], axis=1)
        cache.append((rows, tokens, hs, cs, gates))
    return out, cache


def per_direction_encode_backward(encoder, dvec, cache):
    """Backward of `per_direction_encode`: each direction's steps in turn,
    then one direction-major table contribution per group."""
    h = encoder.h
    for rows, tokens, hs, cs, gates in cache:
        steps = tokens.shape[1]
        dx = np.empty(tokens.shape + (encoder.d,))
        for r in range(2):
            dh = dvec[rows, r * h : (r + 1) * h]
            dc = np.zeros_like(dh)
            for t in range(steps - 1, -1, -1):
                dx[r, t], dh, dc = _cell_step_backward(
                    encoder.w[r], encoder.g_w[r], encoder.g_b[r], dh, dc,
                    encoder.embeddings[tokens[r, t]], hs[r, t], cs[r, t], gates[r, t], cs[r, t + 1],
                )
        encoder.table_grads.append((tokens.reshape(-1), dx.reshape(-1, encoder.d)))


# File writers: the inverses of the loaders, for round-trip tests.


def save_corpus(path: str, events: Iterable[EventTuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(format_event(e) + "\n")


def format_annotation(example: AnnotatedExample) -> str:
    intent = " ".join(example.intent) if example.intent else "-"
    emotions = ",".join(example.emotion_words) if example.emotion_words else "-"
    return f"{format_event(example.event)}\t{intent}\t{emotions}"


def save_annotations(path: str, examples: Iterable[AnnotatedExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(format_annotation(ex) + "\n")


def save_hardsim(path: str, instances: Iterable[HardSimInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            events = (*inst.similar, *inst.dissimilar)
            fh.write("\t".join(format_event(e) for e in events) + "\n")


def save_transitive(path: str, instances: Iterable[TransitiveSimInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(
                f"{format_event(inst.pair[0])}\t{format_event(inst.pair[1])}\t{inst.gold:g}\n"
            )


def save_lexicon(path: str, lexicon: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, polarity in lexicon.items():
            fh.write(f"{word}\t{'+1' if polarity > 0 else '-1'}\n")


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    return b"".join(_serialized_parts(ckpt))
