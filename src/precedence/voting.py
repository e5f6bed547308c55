"""Voting situations: integer electorates over linear preference rankings.

A voting situation counts, for each permutation of the m candidates, how
many voters hold exactly that preference ranking. In any election among a
subset A of candidates every voter supports their top-ranked member of A
(plurality with sincere voting), so the tallies n_i(A) are the
integer-valued analogue of winning probabilities: :func:`tally` sums the
failed-set table of the voter counts, the kernel behind ``alpha_family``,
and dividing the counts by the electorate size turns the situation into a
permutation distribution with n_i(A) = n * alpha_i(A) exactly.

A ranking pattern is N-concordant with a situation when lower rank means
strictly more votes, ties matching tied tallies, on every subset.
:func:`synthesize_voting_situation` manufactures such an electorate for
any tie-free pattern: the schedule model's failure-order law, taken as
integer numerators over the lcm of its reduced denominators, gives the
voter counts. The counts are exact big integers; they grow
astronomically with m, and minimizing the electorate is out of scope.

A situation read from a document checks ``m`` against the cap first, then
each row once, where it enters: its ranking, and its count, a
non-negative JSON integer or ASCII decimal string. A document in canonical
form is checked a column at a time (``core.permutation_column``), with the
same result. One built by hand runs the same row check; two keys that name
one ranking are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

from .construction import build_ls_epsilon, epsilon_schedule
from .core import Checked, JsonRows, check_dimension, checked_entries, decimal_int, int_format
from .core import json_dimension, json_entries, plain_json, subset_members, subset_rows
from .core import permutation_column, validate_permutation
from .errors import DomainError, InputFormatError
from .loadsharing import distribution_of
from .permdist import failed_set_table, winner_sums
from .ranking import ConcordanceReport, RankingPattern, score_concordance


@dataclass(frozen=True)
class VotingSituation:
    """Non-negative voter counts per preference ranking; total n > 0."""

    m: int
    counts: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        check_dimension(self.m)
        if type(self.counts) is Checked:  # from the loader or a law: rows and counts checked
            counts = self.counts.entries
        else:
            counts = checked_entries(self.counts.items(), partial(_count_entry, self.m, None))
        clean = {perm: count for perm, count in counts.items() if count}
        if not clean:
            raise DomainError("a voting situation needs at least one voter")
        object.__setattr__(self, "counts", clean)

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its count table as :class:`~precedence.core.JsonRows`."""
        rows = [(perm, int_format(n, "counts")) for perm, n in sorted(self.counts.items())]
        return {"m": self.m, "counts": JsonRows(("perm", "n"), rows)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "VotingSituation":
        m = json_dimension(doc)
        names = ("perm", "n")
        counts = permutation_column(m, _counts, doc.get("counts"), names)
        if counts is None:
            read = partial(decimal_int, where="n")  # a JSON integer or an ASCII decimal string
            counts = json_entries(doc, "counts", names, partial(_count_entry, m, read))
        try:
            return cls(m, Checked(counts))
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


def _count_entry(m: int, read: Callable | None, perm: object, count: object) -> tuple:
    """``(perm, count)``: a permutation of [m], then an int >= 0, not a bool, or ``read``."""
    perm = validate_permutation(m, perm)
    if read is not None:
        count = read(count)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise DomainError(f"count for {perm} must be a non-negative integer")
    return perm, count


def _counts(values: list) -> list[int]:
    """The counts of ``values``, ints and strs, for :func:`~precedence.core.permutation_column`:
    what ``decimal_int`` reads, all at once, and a ValueError where it refuses one."""
    digits = "".join(map(str, values))  # a negative int puts in a "-"
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not all non-negative integers or decimal strings")
    return list(map(int, values))  # a ValueError for "", or past int()'s digit limit


@dataclass(frozen=True)
class TallyTable:
    """Plurality tallies n_i(A) for every election subset A."""

    m: int
    n: int
    tallies: Mapping[tuple[tuple[int, ...], int], int]

    def votes(self, subset: Iterable[int], i: int) -> int:
        members = subset_members(self.m, subset)
        if type(i) is not int or (members, i) not in self.tallies:  # True == 1, but no candidate
            raise DomainError(f"no tally for candidate {i!r} in election {members}")
        return self.tallies[(members, i)]

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its tallies as :class:`~precedence.core.JsonRows`."""
        sets, tallies = sorted({members for members, _ in self.tallies}), self.tallies
        votes = subset_rows("votes", ((s, [int_format(tallies[s, j], "tallies") for j in s]) for s in sets))
        return {"m": self.m, "n": int_format(self.n, "n"), "tallies": votes}


def tally(vs: VotingSituation) -> TallyTable:
    """Count, per election subset, each candidate's plurality support.

    A voter supports the earliest member of A in their ranking, so n_i(A)
    is a submask sum of the failed-set table over the voter counts;
    integer arithmetic throughout, and the votes over A always sum to n.
    """
    table = failed_set_table(vs.counts.items())
    return TallyTable(vs.m, vs.n, winner_sums(vs.m, table))


def check_n_concordance(tau: RankingPattern, vs: VotingSituation) -> ConcordanceReport:
    """PASS iff lower rank means strictly more votes, ties matching, every subset."""
    if tau.m != vs.m:
        raise DomainError(f"pattern has m={tau.m} but situation has m={vs.m}")
    return score_concordance(tau, tally(vs).tallies)


def synthesize_voting_situation(sigma: RankingPattern) -> VotingSituation:
    """An integer electorate whose tallies are N-concordant with ``sigma``.

    Builds the universal schedule model and takes its exact failure-order
    law as integer numerators over the lcm of the reduced denominators:
    those numerators, coprime with that scale, are the counts.
    """
    model = build_ls_epsilon(sigma, epsilon_schedule(sigma.m))
    return VotingSituation(sigma.m, Checked(distribution_of(model).numerators))
