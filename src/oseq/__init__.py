"""Enumeration, counting and verification of finite O-sequences.

An O-sequence is the Hilbert function of a standard graded Artinian
algebra: a finite tuple starting at 1 whose growth obeys the classical
binomial-expansion bound degree by degree.  This package counts the
O-sequences of a given multiplicity d (the sum of the entries) by two
independent routes: a constructive sliding-window enumeration, and a
memoized recursion over decompositions of lex-segment sous-escaliers.
The analysis module turns the known structural facts about these counts
into executable checks.

The top level exports the four entry points below; everything else is
imported from its module.
"""
from .counting import count_via_formula
from .enumerator import count_table
from .lexseg import sous_escalier
from .macaulay import growth_bound

__all__ = ["count_table", "count_via_formula", "growth_bound", "sous_escalier"]
