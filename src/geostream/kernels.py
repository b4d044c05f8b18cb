"""Scalar scoring kernels shared by every index and the oracle.

All costs live in [0, 1], smaller is better. Callers reach these through
the module (``kernels.relevance_cost``), never by a ``from`` import, so a
wrapper set on the module sees every call.

``visual_weight`` and ``relevance_cost`` are the reference definitions of
the smoothed word weight and of visual relevance. Searches score through
``model.QueryContext``, which folds the per-query constants once and must
agree with them; ``model.visual_weight`` and the tests call them directly.

The tree search's hot loops, ``QueryContext.score_leaf`` and the one
node bound of both trees, ``engine.TreeIndex.bounds``, inline
``spatial_cost``, ``rect_min_cost``, ``recency_cost`` and ``combine`` in
the same operands and order, so their results are bit-equal to these
functions'. The functions stay as the reference that the tests compare
against, as the path of the oracle and of ``model.combined_score`` for
an image the leaf scorer did not return, as the spatial part
``TreeIndex.candidates`` takes off a leaf's bound (``rect_min_cost``),
and as what the benchmark's call counters wrap.
"""

import math


def visual_weight(tf, image_len, corpus_tf, corpus_total, xi):
    return (1.0 - xi) * (tf / image_len) + xi * (corpus_tf / corpus_total)


def spatial_cost(q_lat, q_lon, lat, lon, delta_max):
    d_lat = q_lat - lat
    d_lon = q_lon - lon
    return math.sqrt(d_lat * d_lat + d_lon * d_lon) / delta_max


def rect_min_cost(q_lat, q_lon, min_lat, min_lon, max_lat, max_lon, delta_max):
    d_lat = 0.0
    if q_lat < min_lat:
        d_lat = min_lat - q_lat
    elif q_lat > max_lat:
        d_lat = q_lat - max_lat
    d_lon = 0.0
    if q_lon < min_lon:
        d_lon = min_lon - q_lon
    elif q_lon > max_lon:
        d_lon = q_lon - max_lon
    return math.sqrt(d_lat * d_lat + d_lon * d_lon) / delta_max


def recency_cost(age_seconds, decay_base, time_unit):
    if age_seconds < 0.0:
        age_seconds = 0.0
    return 1.0 - decay_base ** (-(age_seconds / time_unit))


def relevance_cost(weights, maxima):
    # Product of per-word weight ratios, carried in log space so long
    # queries do not underflow.  Words whose normalizer is zero (absent
    # from the live corpus with a zero smoothing floor) cancel out of
    # numerator and denominator and are skipped.
    log_num = 0.0
    log_den = 0.0
    for i in range(len(weights)):
        m = maxima[i]
        if m <= 0.0:
            continue
        w = weights[i]
        if w <= 0.0:
            return 1.0
        log_num += math.log(w)
        log_den += math.log(m)
    ratio = math.exp(log_num - log_den)
    if ratio > 1.0:
        ratio = 1.0
    return 1.0 - ratio


def combine(w1, w2, w3, f_s, f_v, f_t):
    return w1 * f_s + w2 * f_v + w3 * f_t
