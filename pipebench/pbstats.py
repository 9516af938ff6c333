"""Arithmetic of the pipeline benchmark: percentiles, the IQR share, the
set-versus-set bound comparison and span self time.

Kept free of I/O so test_pbstats.py can pin every formula down.
"""

import statistics


def weighted_percentile(samples, q):
    """Decision-weighted percentile of poll latencies.

    `samples` is a list of (latency, weight) pairs: a poll's wall time
    and the number of decisions it returned, so every decision carries
    the latency of the poll that produced it. Returns (value, beyond):
    the smallest latency at which the cumulative weight reaches `q` of
    the total (nearest rank), and how many polls with a non-zero weight
    took longer than it.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    weighted = sorted((lat, w) for lat, w in samples if w > 0)
    if not weighted:
        raise ValueError("no sample has a positive weight")
    total = sum(w for _, w in weighted)
    target = q * total
    cumulative = 0
    value = weighted[-1][0]
    for lat, w in weighted:
        cumulative += w
        if cumulative >= target:
            value = lat
            break
    beyond = sum(1 for lat, _ in weighted if lat > value)
    return value, beyond


def fast_half_median(values):
    """Median of the faster half of per-replay timings.

    Every replay of a run does identical work (the harness checks that
    their decisions agree bit for bit), and interference from outside
    the process only ever adds time. Dropping the slower half removes
    most of that interference; taking the median of the rest keeps one
    lucky replay from setting the figure. With an odd count the middle
    value belongs to the faster half.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    return statistics.median(ordered[:(len(ordered) + 1) // 2])


def replay_percentile(replays, q):
    """Weighted percentile over replays of identical work.

    `replays` holds one list of (latency, weight) samples per replay,
    in the same order in every replay: sample i is the same poll (or
    call) doing the same work each time. Each sample's latency is first
    summarised across replays with fast_half_median, which drops the
    interference that hit single polls, and the weighted percentile is
    taken over those summaries. Returns (value, polls beyond it).
    """
    first = replays[0]
    if any(len(r) != len(first) or
           any(w != w0 for (_, w), (_, w0) in zip(r, first))
           for r in replays):
        raise ValueError("replays differ in their polls")
    merged = [(fast_half_median([r[i][0] for r in replays]), w)
              for i, (_, w) in enumerate(first)]
    return weighted_percentile(merged, q)


def iqr_share(values):
    """Distance between the first and third quartile over the median,
    with the quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_share(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better). `better` is "lower" or "higher"."""
    if better == "lower":
        return (second - first) / first
    if better == "higher":
        return (first - second) / first
    raise ValueError("better must be 'lower' or 'higher'")


def within_bound(first_values, second_values, better, bound):
    """Set-versus-set comparison: the second set's median may be worse
    than the first's by at most `bound`. Returns (worse_share, ok)."""
    share = worse_share(statistics.median(first_values),
                        statistics.median(second_values), better)
    return share, share <= bound


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    `spans` is a list of dicts with id, parent, start_ns and end_ns.
    Children may overlap each other (work on several threads); the
    covered part is the union of their intervals, clipped to the parent.
    Returns {id: self_ns}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        intervals = sorted(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(s["id"], []))
        covered = 0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (end - start) - covered
    return out


def subtree(spans, root_id):
    """Ids of `root_id` and every span below it."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s["id"])
    ids, stack = [], [root_id]
    while stack:
        i = stack.pop()
        ids.append(i)
        stack.extend(children.get(i, []))
    return ids
