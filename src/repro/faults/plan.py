"""Deterministic fault plans: seeded, JSON round-trippable chaos schedules.

A :class:`FaultPlan` is plain data — a list of :class:`Fault` entries,
each naming an injection *site*, the 0-based *occurrence* of that site at
which it fires, an *op* (what goes wrong), and op parameters.  Because a
fault is keyed by (site, occurrence) and the dispatcher polls every site
deterministically, replaying the same plan against the same fleet
reproduces the same fault schedule regardless of worker count, host
speed, or scheduling — which is what lets the hypothesis property in
``tests/test_property_faults.py`` assert that *any* recoverable plan
leaves the final report byte-identical to a fault-free run.

Sites and their ops:

* ``fleet.chunk`` — polled once per in-process execution attempt of
  the recovery ladder, by the process that armed the plan (drain
  children run disarmed); ops: ``crash``, ``exception`` and ``hang``
  (each raises :class:`~repro.errors.InjectedFault`), ``oserror``
  (transient :class:`OSError`), ``corrupt_payload`` (bit-flip the
  packed payload after its digest is sealed, caught on verify).
* ``campaign.cell.save`` — polled once per checkpoint write; ops:
  ``truncate`` (keep ``keep_frac`` of the file), ``bitflip`` (flip one
  byte at ``offset_frac``), ``empty`` (0-byte file, the
  crash-between-create-and-write shape).
* ``campaign.cell.load`` — polled once per checkpoint read attempt;
  ops: ``oserror`` (transient read failure, retried).
* ``fleet.shard.claim`` — polled once per shard-lease claim attempt in
  the sharded fleet runner; ops: ``oserror`` / ``exception`` (the claim
  attempt fails; the work-steal loop moves on and comes back).
* ``fleet.shard.save`` — polled once per published shard artifact; ops:
  ``truncate`` / ``bitflip`` / ``empty`` (damage the artifact after the
  atomic publish — caught at merge, quarantined, and re-executed).
* ``fleet.shard.merge`` — polled once per shard read attempt during the
  merge; ops: ``oserror`` (transient read failure, retried).
* ``fleet.gateway`` — polled once per message received by the gateway
  server (:mod:`repro.gateway`); ops: ``drop`` (swallow the request —
  the client times out and retries the same id), ``delay`` (hold the
  response for ``seconds``), ``corrupt`` (bit-flip the response line so
  the client re-sends; request-id dedup keeps the verb exactly-once).

Plans serialize to/from JSON (``to_json``/``from_json``) so a chaos
schedule can ship as a CLI artifact (``--chaos PLAN.json``) and be
replayed bit-for-bit in CI or a bug report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

#: Injection sites and the fault ops each supports.
FAULT_SITES = {
    "fleet.chunk": ("crash", "exception", "hang", "oserror", "corrupt_payload"),
    "campaign.cell.save": ("truncate", "bitflip", "empty"),
    "campaign.cell.load": ("oserror",),
    "fleet.shard.claim": ("oserror", "exception"),
    "fleet.shard.save": ("truncate", "bitflip", "empty"),
    "fleet.shard.merge": ("oserror",),
    "fleet.gateway": ("drop", "delay", "corrupt"),
}


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: fire ``op`` at the ``when``-th poll of ``site``."""

    site: str
    when: int
    op: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        ops = FAULT_SITES.get(self.site)
        if ops is None:
            raise ConfigError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )
        if self.op not in ops:
            raise ConfigError(
                f"site {self.site!r} does not support op {self.op!r}; "
                f"supported: {ops}"
            )
        if not isinstance(self.when, int) or self.when < 0:
            raise ConfigError(f"fault 'when' must be an int >= 0, got {self.when!r}")

    def directive(self) -> dict:
        """The flat dict shipped to the executing process."""
        return {"op": self.op, **self.params}

    def to_dict(self) -> dict:
        out = {"site": self.site, "when": self.when, "op": self.op}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        if not isinstance(data, dict):
            raise ConfigError(f"fault entry must be a dict, got {type(data).__name__}")
        unknown = set(data) - {"site", "when", "op", "params"}
        if unknown:
            raise ConfigError(f"unknown fault field(s) {sorted(unknown)}")
        missing = {"site", "when", "op"} - set(data)
        if missing:
            raise ConfigError(f"fault entry missing field(s) {sorted(missing)}")
        return cls(
            site=data["site"],
            when=int(data["when"]),
            op=data["op"],
            params=dict(data.get("params", {})),
        )


class FaultPlan:
    """An ordered, replayable schedule of :class:`Fault` entries."""

    def __init__(self, faults=(), seed=None, note: str = ""):
        self.faults = list(faults)
        for f in self.faults:
            if not isinstance(f, Fault):
                raise ConfigError(f"FaultPlan needs Fault entries, got {f!r}")
        self.seed = None if seed is None else int(seed)
        self.note = str(note)
        self._index: dict = {}
        for f in self.faults:
            self._index.setdefault((f.site, f.when), []).append(f)

    def __len__(self) -> int:
        return len(self.faults)

    def at(self, site: str, occurrence: int) -> list:
        """Faults scheduled for the ``occurrence``-th poll of ``site``."""
        return self._index.get((site, occurrence), [])

    def sites(self) -> set:
        return {f.site for f in self.faults}

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        out: dict = {"faults": [f.to_dict() for f in self.faults]}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan must be a dict, got {type(data).__name__}")
        unknown = set(data) - {"faults", "seed", "note"}
        if unknown:
            raise ConfigError(f"unknown fault plan field(s) {sorted(unknown)}")
        return cls(
            faults=[Fault.from_dict(f) for f in data.get("faults", [])],
            seed=data.get("seed"),
            note=data.get("note", ""),
        )

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load fault plan {path!r}: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # Seeded generation
    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        seed: int,
        faults: int = 6,
        sites=None,
        horizon: int = 24,
        max_hang_s: float = 0.6,
    ) -> "FaultPlan":
        """A deterministic random plan: ``faults`` entries over the first
        ``horizon`` occurrences of the chosen ``sites``.

        The same seed always produces the same plan (SeedSequence-pinned),
        so a failing hypothesis example reduces to one integer.  Keep
        ``faults`` at or below the dispatcher's retry budget when the plan
        must be *recoverable* (see ``tests/test_property_faults.py``).
        """
        site_names = tuple(sites) if sites is not None else tuple(sorted(FAULT_SITES))
        for name in site_names:
            if name not in FAULT_SITES:
                raise ConfigError(f"unknown fault site {name!r}")
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        entries = []
        for _ in range(int(faults)):
            site = site_names[int(rng.integers(len(site_names)))]
            ops = FAULT_SITES[site]
            op = ops[int(rng.integers(len(ops)))]
            params: dict = {}
            if op == "hang" or op == "delay":
                params["seconds"] = round(float(rng.uniform(0.05, max_hang_s)), 3)
            elif op == "truncate":
                params["keep_frac"] = round(float(rng.uniform(0.05, 0.95)), 3)
            elif op == "bitflip":
                params["offset_frac"] = round(float(rng.uniform(0.0, 1.0)), 3)
            when = int(rng.integers(int(horizon)))
            entries.append(Fault(site=site, when=when, op=op, params=params))
        return cls(faults=entries, seed=int(seed))
