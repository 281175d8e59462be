"""Per-input candidate sets ``A_i`` (Section 4.1).

For a detection time ``u`` and maximum subsequence length ``L_S``,
``A_i`` collects every weight in ``S`` (of length at most ``L_S``) whose
expansion perfectly matches the tail of ``T_i`` ending at ``u``.  The
set is ordered by decreasing total match count ``n_m`` — the greedy
criterion the paper uses because more matches tend to mean more detected
faults.

The *full-length promotion rule* (end of Section 4.1): the longest
subsequences match the most history right before the detection time, so
if no row ``j`` of the ``A_i`` table consists entirely of length-``L_S``
subsequences, the length-``L_S`` member of each ``A_i`` is moved to the
front, making ``w_0`` the all-full-length assignment.

``n_m`` counts matches over the whole of ``T_i``, so it does not depend
on the detection time: :class:`MatchCounts` computes each weight's count
on each input once, however many detection times and lengths a
procedure run visits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.weight import Weight
from repro.core.weight_set import WeightSet
from repro.tgen.sequence import TestSequence


class MatchCounts:
    """``n_m`` of every (weight, input) pair over one sequence ``T``,
    each counted once."""

    def __init__(self, sequence: TestSequence) -> None:
        self.sequence = sequence
        self._counts: Dict[Tuple[Weight, int], int] = {}

    def count(self, weight: Weight, i: int) -> int:
        """``n_m`` of ``weight`` on input ``i``."""
        key = (weight, i)
        n = self._counts.get(key)
        if n is None:
            n = weight.match_count(self.sequence.restrict(i))
            self._counts[key] = n
        return n


def candidate_sets(
    sequence: TestSequence,
    u: int,
    weights: WeightSet,
    max_length: int,
    sort_by_matches: bool = True,
    counts: Optional[MatchCounts] = None,
) -> List[List[Tuple[Weight, int]]]:
    """Build the ordered candidate sets ``A_i`` for every input.

    Parameters
    ----------
    sequence:
        The deterministic test sequence ``T``.
    u:
        The detection time the assignment targets.
    weights:
        The current weight set ``S``.
    max_length:
        ``L_S``: only weights of length at most this participate.
    sort_by_matches:
        Sort each ``A_i`` by decreasing ``n_m`` (the paper's rule).
        Disabling this is an ablation switch: candidates stay in ``S``
        insertion order.
    counts:
        The :class:`MatchCounts` of ``sequence`` to reuse across calls;
        a fresh one when omitted.

    Returns
    -------
    One list per input ``i`` of ``(weight, n_m)`` pairs.  Ties in
    ``n_m`` break toward shorter subsequences (the paper notes shorter
    subsequences are preferable for hardware), then lexicographically
    for determinism.
    """
    if counts is None:
        counts = MatchCounts(sequence)
    pool = weights.up_to_length(max_length)
    result: List[List[Tuple[Weight, int]]] = []
    for i in range(sequence.width):
        t_i = sequence.restrict(i)
        matched = [
            (w, counts.count(w, i)) for w in pool if w.matches_tail(t_i, u)
        ]
        if sort_by_matches:
            matched.sort(key=lambda pair: (-pair[1], pair[0].length, pair[0].bits))
        result.append(matched)
    return result


def promote_full_length(
    candidates: List[List[Tuple[Weight, int]]], full_length: int
) -> List[List[Tuple[Weight, int]]]:
    """Apply the full-length promotion rule of Section 4.1.

    If some row ``j`` already yields an all-length-``full_length``
    assignment, the sets are returned unchanged.  Otherwise each
    ``A_i``'s length-``full_length`` member (unique when present — the
    mined tail reproducer) is moved to the front.  Inputs lacking such a
    member keep their order.
    """
    if not candidates or any(not a_i for a_i in candidates):
        return candidates
    depth = min(len(a_i) for a_i in candidates)
    for j in range(depth):
        if all(a_i[j][0].length == full_length for a_i in candidates):
            return candidates
    promoted: List[List[Tuple[Weight, int]]] = []
    for a_i in candidates:
        index = next(
            (k for k, (w, _n) in enumerate(a_i) if w.length == full_length), None
        )
        if index is None or index == 0:
            promoted.append(list(a_i))
        else:
            reordered = [a_i[index]] + a_i[:index] + a_i[index + 1 :]
            promoted.append(reordered)
    return promoted


def assignment_row(
    candidates: Sequence[Sequence[Tuple[Weight, int]]], j: int
) -> List[Weight]:
    """Row ``j`` of the candidate table: ``w_j = {α_{i,j}}``.

    When ``A_i`` is shorter than ``j + 1``, its last (least-matching)
    entry is reused — the paper increments ``j`` uniformly across
    inputs, and exhausted inputs have no further candidates to offer.
    """
    row = []
    for a_i in candidates:
        if not a_i:
            raise ValueError("an input has an empty candidate set")
        row.append(a_i[min(j, len(a_i) - 1)][0])
    return row


def max_rows(candidates: Sequence[Sequence[Tuple[Weight, int]]]) -> int:
    """Number of distinct rows the candidate table offers."""
    return max((len(a_i) for a_i in candidates), default=0)
