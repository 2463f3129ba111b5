"""Wrappers the benchmark puts around the program's public functions.

A function is wrapped at the name its caller looks it up by (for example
``codecomp.cotrain.train_logreg``, which ``cotrain_fit`` calls), so the
program itself is not edited. Two kinds of wrapper live here:

* ``Tracer`` records, per layer, the calls, the time inside them
  (``busy_s``), the part of it spent in other wrapped calls (so that
  ``self_s = busy_s - children``) and counts taken from arguments and
  results. It is installed in traced runs only.
* ``Recorder`` keeps the arguments and results of a few calls whose
  outputs the checkers need but the program does not return, such as the
  per-fold confusion counts inside ``ablation_table``. It does no timing
  and is installed in every run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class _Patches:
    def __init__(self):
        self._undo = []

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


class Tracer(_Patches):
    def __init__(self):
        super().__init__()
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def wrap(self, module, attr, key, count=None, only_under=None):
        """Time calls of ``module.attr`` as layer ``key``.

        ``count(counts, args, result)`` adds to the named counters.
        With ``only_under``, only calls made directly inside that layer's
        span are timed; other calls pass straight through.
        """
        original = getattr(module, attr)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if only_under is not None and (not stack or stack[-1] != only_under):
                return original(*args, **kwargs)
            stack.append(key)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.busy[key] += elapsed
                self.calls[key] += 1
                if stack:
                    self.child[stack[-1]] += elapsed
            if count is not None:
                count(self.counts, args, result)
            return result

        self._patch(module, attr, wrapper)

    def self_s(self, key) -> float:
        return self.busy[key] - self.child[key]


class Recorder(_Patches):
    def __init__(self):
        super().__init__()
        self.calls = defaultdict(list)
        self.active = True

    def tap(self, module, attr, key, keep=None):
        """Keep (args, result) of every call while active, or only
        ``keep(args, result)`` where keeping the whole call costs memory."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.active:
                self.calls[key].append((args, result) if keep is None
                                       else keep(args, result))
            return result

        self._patch(module, attr, wrapper)
