"""The per-machine policy engine: one registry over every interposition
mechanism, one commit history across every plane."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import PolicyError
from ..sim import AllOf, Signal, Simulator
from .point import InterpositionPoint, PolicyCommit


class PolicyEngine:
    """Owned by each :class:`~repro.host.machine.Machine`.

    Mechanisms register their :class:`InterpositionPoint` at construction
    time; from then on every policy mutation — whether issued through a
    dataplane's admin surface, a tool like iptables/tc, or the KOPI control
    plane — lands in the same versioned commit stream, and every packet
    evaluation increments the same per-point counters. The engine is the
    single place an operator (or E14) can ask "what policy is installed
    where, when did it land, and what ran under the old version meanwhile".
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._points: Dict[str, InterpositionPoint] = {}
        self.history: List[PolicyCommit] = []
        #: Monotonic counter bumped whenever ANY point's version advances —
        #: the machine-wide policy epoch flow caches compare against.
        self.epoch = 0
        #: Commit observers, called (no args) after each epoch bump. The
        #: hybrid-fidelity controller registers here: a policy commit is a
        #: fidelity boundary, so every fluid flow demotes to packet-exact
        #: simulation before any packet runs under the new policy.
        self.on_commit: List[Callable[[], None]] = []
        #: :meth:`version_vector` of the current epoch and registry, or
        #: None once a commit or a registration has made it stale.
        self._versions: Optional[Tuple[Tuple[str, int], ...]] = None

    def _on_commit(self, point: InterpositionPoint) -> None:
        """Called by a point when its version advances (a commit landed).
        Failed async commits leave the old table running and do NOT bump
        the epoch, so caches built over them stay valid."""
        self.epoch += 1
        self._versions = None
        for hook in self.on_commit:
            hook()

    def version_vector(self) -> Tuple[Tuple[str, int], ...]:
        """The live (point name, version) pairs, sorted — the composite
        policy version a cached fast-path entry is stamped with. One tuple
        per policy epoch: every entry installed in the same epoch shares
        it."""
        versions = self._versions
        if versions is None:
            versions = self._versions = tuple(
                sorted((n, p.version) for n, p in self._points.items()))
        return versions

    # --- registry ----------------------------------------------------------

    def register(self, point: InterpositionPoint) -> InterpositionPoint:
        """Register a point; duplicate names get a ``#N`` suffix (a machine
        may run several qdiscs, several tables...)."""
        base = point.name
        name, n = base, 1
        while name in self._points:
            n += 1
            name = f"{base}#{n}"
        point._bind(self, name)
        self._points[name] = point
        self._versions = None
        return point

    def get(self, name: str) -> InterpositionPoint:
        if name not in self._points:
            raise PolicyError(
                f"no interposition point {name!r} (have {sorted(self._points)})"
            )
        return self._points[name]

    def find(self, name: str) -> Optional[InterpositionPoint]:
        return self._points.get(name)

    def find_by_target(self, target: Any) -> Optional[InterpositionPoint]:
        """The point wrapping a given mechanism object — how tools resolve
        'the netfilter table I am editing' back to its registry entry."""
        for point in self._points.values():
            if point.target is target:
                return point
        return None

    def points(self) -> List[InterpositionPoint]:
        return list(self._points.values())

    def __iter__(self) -> Iterator[InterpositionPoint]:
        return iter(self._points.values())

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, name: str) -> bool:
        return name in self._points

    # --- commit tracking ---------------------------------------------------

    def pending(self) -> List[InterpositionPoint]:
        """Points with a commit in flight."""
        return [p for p in self._points.values() if p.pending_commits]

    def all_committed(self) -> Signal:
        """Fires when no point on this machine has a commit in flight —
        the engine's commit notification (succeeds immediately when idle)."""
        return AllOf(
            [p.committed() for p in self._points.values()],
            name="interpose.all_committed",
        )

    def commits_for(self, name: str) -> List[PolicyCommit]:
        return [c for c in self.history if c.point == name]
