"""Independent reference computations used to check the library code.

These deliberately avoid the library's own code paths: the cleaning
oracle tests every character's Unicode category in turn, the Naive Bayes
oracle multiplies plain probabilities (no logs), the Naive Bayes loop
oracles count one word row and add one log-likelihood row at a time, the
WordPiece oracle recounts every pair on every merge, the segmentation
oracle tries every end position from the end of the word, the encoder
oracle runs one example at full length with every query row in every
layer, the density-curve oracle scans every song for every bin, the kernel
oracles (masked softmax, GELU, layer norm and their gradients, AdamW)
evaluate each textbook expression with a fresh array per operation, and
the CSV builder writes files by hand.
"""

import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from moodlyrics._kernels import softmax_inplace
from moodlyrics.corpus import MoodLabel
from moodlyrics.errors import MoodlyricsError

N_CLASSES = len(MoodLabel)


def clean_text_by_category(raw: str) -> str:
    """NFC composition, each character of Unicode category P* replaced by a
    space, whitespace runs collapsed, ends stripped."""
    text = unicodedata.normalize("NFC", raw)
    text = "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in text)
    return " ".join(text.split())


def nb_brute_force_posterior(
    docs: list[tuple[list[str], int]], alpha: float, query: list[str]
) -> np.ndarray:
    """Posterior over classes by direct products of smoothed probabilities.

    ``docs`` are (token list, class index) pairs; tokens in ``query`` that
    never occur in training are skipped, matching the classifier contract.
    """
    vocab = sorted({w for words, _ in docs for w in words})
    totals = np.zeros(N_CLASSES)
    counts = {w: np.zeros(N_CLASSES) for w in vocab}
    class_docs = np.zeros(N_CLASSES)
    for words, label in docs:
        class_docs[label] += 1
        for w in words:
            counts[w][label] += 1
            totals[label] += 1
    priors = class_docs / class_docs.sum()
    scores = priors.copy()
    for w in query:
        if w not in counts:
            continue
        for c in range(N_CLASSES):
            scores[c] *= (counts[w][c] + alpha) / (totals[c] + alpha * len(vocab))
    return scores / scores.sum()


def tokenize_like_baseline(text: str) -> list[str]:
    return clean_text_by_category(text).lower().split()


def nb_train_loops(corpus, alpha: float) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(vocabulary, log priors, log likelihoods) of multinomial Naive Bayes,
    counted one token at a time into a numpy row per word and a running
    per-class total, then copied row by row into the [V, 4] matrix: the
    bit-exact reference for ``baseline.nb_train``."""
    class_docs = {label: 0 for label in MoodLabel}
    word_counts: dict[str, np.ndarray] = {}
    class_totals = np.zeros(N_CLASSES)
    for rec in corpus:
        class_docs[rec.mood] += 1
        for word in rec.cleaned.lower().split():
            row = word_counts.get(word)
            if row is None:
                row = word_counts[word] = np.zeros(N_CLASSES)
            row[rec.mood] += 1
            class_totals[rec.mood] += 1
    vocabulary = {word: i for i, word in enumerate(sorted(word_counts))}
    counts = np.zeros((len(vocabulary), N_CLASSES))
    for word, row in word_counts.items():
        counts[vocabulary[word]] = row
    log_priors = np.log(np.array([class_docs[label] for label in MoodLabel]) / len(corpus))
    likelihood = (counts + alpha) / (class_totals + alpha * len(vocabulary))
    return vocabulary, log_priors, np.log(likelihood)


def nb_posterior_loop(
    vocabulary: dict[str, int], log_priors: np.ndarray, log_likelihood: np.ndarray,
    cleaned: str,
) -> np.ndarray:
    """Posterior from a copy of the log priors with each known token's
    log-likelihood row added in turn: the bit-exact reference for
    ``baseline.nb_predict``."""
    scores = log_priors.copy()
    for word in cleaned.lower().split():
        row = vocabulary.get(word)
        if row is not None:
            scores += log_likelihood[row]
    return softmax_inplace(scores)


def density_curve_by_bin(corpus, bin_width: int, stopwords=frozenset()) -> list:
    """(bin start, mean lexical density) for each occupied bin, every bin
    from 0 to the largest unique-word count, each mean taken over a fresh
    scan of all songs (corpus order) for those whose unique count falls in
    [start, start + bin_width)."""
    points = []
    for rec in corpus:
        words = rec.cleaned.split()
        content = len([w for w in words if w not in stopwords])
        points.append((len(set(words)), content / len(words)))
    curve = []
    for start in range(0, max(unique for unique, _ in points) + 1, bin_width):
        inside = [density for unique, density in points if start <= unique < start + bin_width]
        if inside:
            curve.append((start, sum(inside) / len(inside)))
    return curve


def write_counts_csv(path: Path, counts: dict[str, int]) -> Path:
    """CSV with the exact ``title,category,lyrics,mood`` header and the
    requested number of rows per mood name."""
    lines = ["title,category,lyrics,mood"]
    for mood_name, count in counts.items():
        for i in range(count):
            lines.append(f"{mood_name} {i},cat,some lyric words {i},{mood_name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def wordpiece_full_recount(corpus, config) -> tuple[str, ...]:
    """WordPiece tokens by the direct method: on every merge, recount every
    adjacent pair of every word type (overlaps included, weighted by word
    frequency), take the most frequent with ties to the smallest pair, stop
    below a count of 2, and rewrite every word left to right without
    overlaps. Raises the same :class:`MoodlyricsError` messages as
    ``train_wordpiece``."""
    specials = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]
    if len(corpus) == 0:
        raise MoodlyricsError("cannot train a vocabulary on an empty corpus")
    word_freq: Counter = Counter()
    for rec in corpus:
        text = clean_text_by_category(rec.lyrics)
        word_freq.update((text.lower() if config.lowercase else text).split())
    if not word_freq:
        raise MoodlyricsError("corpus has no words after cleaning")

    words = {w: [w[0]] + ["##" + ch for ch in w[1:]] for w in word_freq}
    base = sorted({sym for syms in words.values() for sym in syms})
    if len(specials) + len(base) > config.vocab_size:
        raise MoodlyricsError(
            f"vocab_size {config.vocab_size} cannot hold {len(specials)} "
            f"special tokens plus {len(base)} character pieces"
        )
    tokens = specials + base
    seen = set(tokens)

    while len(tokens) < config.vocab_size:
        pair_counts: Counter = Counter()
        for word, syms in words.items():
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] += word_freq[word]
        if not pair_counts:
            break
        best_pair, best_count = min(
            pair_counts.items(), key=lambda item: (-item[1], item[0])
        )
        if best_count < 2:
            break
        merged = best_pair[0] + best_pair[1][2:]
        for word, syms in words.items():
            out = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best_pair:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[word] = out
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)
    return tuple(tokens)


def wordpiece_segment_uncapped(word: str, vocab) -> list[str]:
    """Greedy longest-prefix segmentation that tries every end position
    from the end of the word; raises the same :class:`MoodlyricsError` as
    ``wordpiece_segment``."""
    if not word or any(ch.isspace() for ch in word):
        raise MoodlyricsError(f"segmentation needs a nonempty whitespace-free word, got {word!r}")
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab.id_of:
                match = piece
                break
            end -= 1
        if match is None:
            return ["[UNK]"]
        pieces.append(match)
        start = end
    return pieces


def full_encoder_logits(params, example) -> np.ndarray:
    """Eval-mode logits of one example by a plain float64 encoder: the whole
    encoded length (no buckets), every query row in every layer, masked keys
    left out of each head's softmax, post-norm layers (layer-norm epsilon
    1e-5) and the tanh form of GELU."""
    cfg = params.config
    p = {name: np.asarray(arr, dtype=np.float64) for name, arr in params.items()}
    keys = np.flatnonzero(example.mask)
    d = cfg.head_size

    def layer_norm(z, gain, bias):
        centered = z - z.mean(axis=1, keepdims=True)
        std = np.sqrt((centered**2).mean(axis=1, keepdims=True) + 1e-5)
        return centered / std * gain + bias

    x = p["tok_emb"][example.ids] + p["pos_emb"][: len(example.ids)]
    for i in range(cfg.num_layers):
        w = {name[len(f"layers.{i}.") :]: arr for name, arr in p.items()
             if name.startswith(f"layers.{i}.")}
        q, k, v = (x @ w[f"attn.w{n}"] + w[f"attn.b{n}"] for n in "qkv")
        ctx = np.empty_like(x)
        for h in range(cfg.num_heads):
            cols = slice(h * d, (h + 1) * d)
            scores = q[:, cols] @ k[keys, cols].T / np.sqrt(d)
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            ctx[:, cols] = weights @ v[keys, cols]
        x = layer_norm(x + ctx @ w["attn.wo"] + w["attn.bo"], w["ln1.g"], w["ln1.b"])
        u = x @ w["ffn.w1"] + w["ffn.b1"]
        gelu = 0.5 * u * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * u**3)))
        x = layer_norm(x + gelu @ w["ffn.w2"] + w["ffn.b2"], w["ln2.g"], w["ln2.b"])
    return x[0] @ p["head.w"] + p["head.b"]


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def masked_softmax_allocating(scores, key_mask):
    """Masked softmax over a fresh copy of ``scores``, which stays as it is."""
    keep = key_mask[:, None, None, :] > 0
    return softmax_inplace(np.where(keep, scores, scores.dtype.type(-np.inf)))


def gelu_allocating(x):
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(x.dtype, copy=False)


def gelu_grad_allocating(x, dy):
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (
        1.0 + 3.0 * _GELU_A * x * x
    )
    return (dy * local).astype(x.dtype, copy=False)


def layer_norm_allocating(x, gain, bias, eps):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    y = xhat * gain + bias
    return (
        y.astype(x.dtype, copy=False),
        xhat.astype(x.dtype, copy=False),
        inv[..., 0].astype(x.dtype, copy=False),
    )


def layer_norm_grad_allocating(dy, xhat, inv_std, gain):
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std[:, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx.astype(dy.dtype, copy=False), dgain, dbias


def adamw_update_allocating(
    param, grad, m, v, lr, beta1, beta2, eps, weight_decay, bias_c1, bias_c2
) -> None:
    """In-place AdamW step written as the textbook expressions, each
    operation allocating its result."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / bias_c1
    v_hat = v / bias_c2
    param -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)
