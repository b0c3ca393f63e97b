"""N-way disk replication with quorum reads and read-repair.

A :class:`MirroredDisk` presents one :class:`~repro.durability.vdisk.VirtualDisk`
over N independent replicas (each of which may itself be wrapped in
fault injectors — :class:`~repro.durability.vdisk.FlakyDisk` under a
:class:`~repro.durability.retry.RetryingDisk`, say).  The contract:

* **mutations fan out** to every replica; the call succeeds when a
  majority applied it, and per-replica failures are counted (and
  reported through telemetry) rather than surfaced, so a single bad
  device never blocks the write path;
* **reads take a majority vote** over the replica's bytes; the winning
  value is returned and — *read-repair* — rewritten onto any replica
  that disagreed or errored, so divergence heals on contact;
* with no majority (every replica answers differently, or too few
  answer at all), the read raises :class:`~repro.errors.DiskError`:
  the mirror refuses to guess.

A majority vote detects *divergence*, not *staleness*: if every replica
is rolled back in lockstep the vote is unanimous and wrong — that case
is exactly what the freshness anchor of :mod:`repro.resilience.anchor`
exists to catch.  And the vote is over raw bytes, not MACs: a corrupt
value that outvotes the healthy one still fails cryptographic
verification downstream, where the scrubber
(:mod:`repro.resilience.scrub`) repairs it from the authentic minority.

:class:`~repro.errors.PowerCutError` propagates immediately — a power
cut takes out the host, not one replica.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import DiskError, PowerCutError
from repro.observability.audit import AUDIT
from repro.observability.timeseries import HUB

from repro.durability.vdisk import VirtualDisk


class MirroredDisk(VirtualDisk):
    """One logical disk over ``replicas`` (>= 2) physical ones."""

    def __init__(self, replicas: list[VirtualDisk] | tuple[VirtualDisk, ...]) -> None:
        if len(replicas) < 2:
            raise DiskError("MirroredDisk needs at least two replicas")
        self._replicas = tuple(replicas)
        #: Replicas healed on the read path since construction.
        self.read_repairs = 0
        #: Per-replica mutation failures absorbed since construction.
        self.write_failures = 0

    @property
    def replicas(self) -> tuple[VirtualDisk, ...]:
        return self._replicas

    @property
    def quorum(self) -> int:
        """Majority threshold: more than half of the replicas."""
        return len(self._replicas) // 2 + 1

    # -- write path ------------------------------------------------------------

    def _fan_out(self, op: str, *args) -> None:
        """Apply ``op`` on every replica; majority success is success."""
        successes = 0
        last_error: DiskError | None = None
        for index, replica in enumerate(self._replicas):
            try:
                getattr(replica, op)(*args)
                successes += 1
            except PowerCutError:
                raise
            except DiskError as exc:
                last_error = exc
                self.write_failures += 1
                if HUB.enabled:
                    HUB.event("replica.write_failures", labels={"replica": index})
                # Forensic breadcrumb, not a detection: absorbed write
                # failures are expected under fault-injected replicas.
                AUDIT.note(
                    "replica.write-failure",
                    op=op,
                    blob=args[0] if args else "",
                    replica=index,
                    error=f"{type(exc).__name__}: {exc}",
                )
        if successes < self.quorum:
            raise DiskError(
                f"mirrored {op} reached only {successes}/{len(self._replicas)} "
                f"replicas (quorum {self.quorum}): {last_error}"
            )

    def append(self, name: str, data: bytes) -> None:
        self._fan_out("append", name, data)

    def write(self, name: str, data: bytes) -> None:
        self._fan_out("write", name, data)

    def rename(self, src: str, dst: str) -> None:
        self._fan_out("rename", src, dst)

    def delete(self, name: str) -> None:
        self._fan_out("delete", name)

    def sync(self, name: str) -> None:
        self._fan_out("sync", name)

    # -- read path -------------------------------------------------------------

    def _gather(self, name: str) -> list[bytes | None]:
        """Each replica's bytes for ``name`` (None = missing/erroring)."""
        values: list[bytes | None] = []
        for replica in self._replicas:
            try:
                values.append(replica.read(name))
            except PowerCutError:
                raise
            except DiskError:
                values.append(None)
        return values

    def read(self, name: str) -> bytes:
        values = self._gather(name)
        votes = Counter(v for v in values if v is not None)
        if not votes:
            raise DiskError(f"no such blob {name!r}")
        winner, count = votes.most_common(1)[0]
        if count < self.quorum:
            raise DiskError(
                f"no replica majority for blob {name!r}: "
                f"best value holds {count}/{len(self._replicas)} votes "
                f"(quorum {self.quorum})"
            )
        for index, value in enumerate(values):
            if value != winner:
                self._repair(index, name, winner)
        return winner

    def _repair(self, index: int, name: str, data: bytes) -> None:
        """Best-effort rewrite of one divergent replica (read-repair)."""
        replica = self._replicas[index]
        try:
            replica.write(name, data)
            replica.sync(name)
        except PowerCutError:
            raise
        except DiskError:
            return  # still divergent; the scrubber gets another chance
        self.read_repairs += 1
        if HUB.enabled:
            HUB.event("replica.read_repairs", labels={"replica": index})
        # A byte-level divergence heal is *not* a tamper detection —
        # crash-dropped writes diverge legitimately; only the scrubber's
        # MAC verdicts are graded ground truth.
        AUDIT.note("replica.read-repair", blob=name, replica=index)

    def exists(self, name: str) -> bool:
        present = 0
        for replica in self._replicas:
            try:
                present += 1 if replica.exists(name) else 0
            except PowerCutError:
                raise
            except DiskError:
                pass
        return present >= self.quorum

    def names(self) -> list[str]:
        tally: Counter = Counter()
        for replica in self._replicas:
            try:
                tally.update(replica.names())
            except PowerCutError:
                raise
            except DiskError:
                pass
        return sorted(name for name, count in tally.items() if count >= self.quorum)
