"""Scheduling core: the paper's primary contribution.

This package implements scheduling of partially-replicable task chains on
two types of resources (big/little cores).  It re-exports nothing: import
each name from the module that defines it, so a caller loads only what it
uses.

* problem model — :mod:`~repro.core.task` (``Task``, ``TaskChain``),
  :mod:`~repro.core.stage`, :mod:`~repro.core.solution`,
  :mod:`~repro.core.types` (``Resources``, ``CoreType``);
* greedy heuristics — :mod:`~repro.core.fertac` (Algo. 4) and
  :mod:`~repro.core.twocatac` (Algos. 5-6), both wrapped in the
  binary-search ``Schedule`` driver of :mod:`~repro.core.binary_search`
  (Algo. 1);
* the optimal dynamic program — :mod:`~repro.core.herad` (Algos. 7-11 /
  Eq. (4)): ``herad`` and ``herad_batch``, the same DP over a whole batch
  of chains;
* the homogeneous baseline — :mod:`~repro.core.otac`;
* the strategy table every caller goes through — :mod:`~repro.core.registry`;
* the verification oracle — :mod:`~repro.core.herad_reference` (literal
  pseudocode); the exhaustive enumeration lives in
  ``tests/core/oracle_bruteforce.py``.
"""
