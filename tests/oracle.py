"""The reference engine: every kernel call site rebound to its reference twin.

The engine has one implementation per job — vectorised List Viterbi,
batched emissions, bitmask Dempster combination, interned top-k Steiner
search behind a batched connectivity prefilter. Each kernel keeps a
separately named pure-Python twin (the executable specification), and
:func:`reference_kernels` swaps those twins in at the engine's call
sites with :func:`unittest.mock.patch`::

    with reference_kernels() as calls:
        want = engine.search_many(texts)
    assert all(calls.values())  # every twin was reached

Entering the context patches process-wide (the call sites are module
attributes), so an engine built before or inside the block runs on the
twins while the block is open. The yielded :class:`~collections.Counter`
counts calls per patched call site: a run that never reached a twin
proves nothing about it, so callers assert the counts they rely on.
Naming patch targets (keys of :data:`TWINS`) swaps in only those twins,
so one kernel can be checked end to end against the rest of the
production engine.

The prefilter "twin" answers "unknown" for every configuration, so each
reference Steiner call checks connectivity itself.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from typing import Any, Callable, Iterator
from unittest import mock

from repro.dst.combine import dempster_combine_reference
from repro.hmm import HiddenMarkovModel, list_viterbi_reference
from repro.steiner import top_k_steiner_trees_reference


def _unknown_connectivity(engine: Any, terminal_sets: list[list]) -> list[None]:
    return [None] * len(terminal_sets)


#: Patch target -> the reference twin bound there.
TWINS: dict[str, Callable[..., Any]] = {
    "repro.core.engine.list_viterbi": list_viterbi_reference,
    "repro.hmm.model.HiddenMarkovModel.emission_matrix": (
        HiddenMarkovModel.emission_matrix_reference
    ),
    "repro.pipeline.stages.dempster_combine": dempster_combine_reference,
    "repro.core.multisource.dempster_combine": dempster_combine_reference,
    "repro.pipeline.stages.top_k_steiner_trees": top_k_steiner_trees_reference,
    "repro.pipeline.stages.BackwardStage._prefilter_batched": _unknown_connectivity,
}


@contextlib.contextmanager
def reference_kernels(*targets: str) -> Iterator[Counter[str]]:
    """Run the engine on the reference twins (all, or only ``targets``);
    yield per-site call counts."""
    unknown = set(targets) - set(TWINS)
    if unknown:
        raise KeyError(f"no reference twin for {sorted(unknown)}")
    chosen = {t: TWINS[t] for t in targets} if targets else TWINS
    calls: Counter[str] = Counter({target: 0 for target in chosen})

    def counted(target: str, twin: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(twin)
        def call(*args: Any, **kwargs: Any) -> Any:
            calls[target] += 1
            return twin(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        for target, twin in chosen.items():
            replacement: Any = counted(target, twin)
            if target.endswith("._prefilter_batched"):
                replacement = staticmethod(replacement)
            stack.enter_context(mock.patch(target, replacement))
        yield calls
