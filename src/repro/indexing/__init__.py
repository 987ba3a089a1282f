"""Generalized 1-dimensional indexing (Section 1.1, point (3)).

The paper observes that when every generalized tuple's projection onto an
attribute x is one interval, 1-dimensional searching on a generalized
database attribute reduces to *dynamic interval intersection* -- a special
case of 2-dimensional searching ("1.5-dimensional searching") with classical
solutions: priority search trees (McCreight) in-core, grid files/R-trees in
secondary storage.  This package provides:

* :mod:`repro.indexing.bptree` -- a B+-tree with node-access counters, the
  paper's reference structure for *relational* 1-d searching (O(log_B N +
  K/B) accesses);
* :mod:`repro.indexing.interval` -- rational endpoint intervals (the
  fixed-length *generalized keys*);
* :mod:`repro.indexing.interval_tree` -- a dynamic AVL-balanced augmented
  interval tree: O(log N) insert/delete, O(log N + K) stabbing and overlap
  queries;
* :mod:`repro.indexing.priority_search_tree` -- McCreight's priority search
  tree over (x, y) points, with the classical interval-stabbing embedding;
* :mod:`repro.indexing.generalized_index` -- the generalized 1-dimensional
  index of the paper: projection of generalized tuples to interval keys
  (point keys ``[c, c]`` in a point table, the rest in an interval tree),
  indexed search that conjoins the range constraint to matching tuples only,
  insert/delete, plus the naive linear-scan baseline it is benchmarked
  against.
"""

from repro.indexing.bptree import BPlusTree
from repro.indexing.generalized_index import (
    GeneralizedIndex1D,
    NaiveGeneralizedSearch,
    tuple_projection_interval,
)
from repro.indexing.interval import Interval
from repro.indexing.interval_tree import IntervalTree
from repro.indexing.priority_search_tree import PrioritySearchTree

__all__ = [
    "BPlusTree",
    "GeneralizedIndex1D",
    "Interval",
    "IntervalTree",
    "NaiveGeneralizedSearch",
    "PrioritySearchTree",
    "tuple_projection_interval",
]
