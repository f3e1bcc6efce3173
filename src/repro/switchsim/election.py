"""Switch-resident leadership arbitration for replicated controllers.

The replicated control plane (``repro.ctrl.replication``) elects its
leader through the *switch*, not through a quorum among replicas: every
control-plane action already flows through the switch, so its election
register is the one place that cannot split-brain. The register is a
CAS-style lease cell — ``(term, leader_id, expires_at_ns)`` — exactly
the kind of state a Tofino control plane keeps next to the scheduler
registers, plus two audit logs the chaos oracle reads:

* ``history`` — one ``(term, leader_id, granted_at_ns)`` row per *new*
  term, backing the at-most-one-leader-per-term invariant;
* ``actions`` — one ``(stamped_term, register_term)`` row per accepted
  fenced control-plane action, backing fencing-token monotonicity and
  no-action-by-deposed-leader.

The register lives on the switch object itself (``switch.election``),
not on the program, so a standby program installed mid-failover keeps
arbitrating the same term sequence — leadership cannot fork across an
``install_program``. Methods take ``now`` explicitly so the same code
serves the simulator clock and the live runtime's wall clock.

Lease boundaries are inclusive, matching the executor-lease convention:
a renewal (or a rival request) landing exactly at ``expires_at_ns``
still sees the incumbent as leader.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.protocol.messages import ElectionAck

#: bound on retained audit rows; one fenced action per reclaim makes the
#: actions log the only unbounded one, and the oracle needs order + the
#: overflow count, not every row
MAX_ACTION_LOG = 4096
MAX_HISTORY = 1024
#: lease expiry of a locally granted term (:meth:`ElectionRegister.grant_local`)
FOREVER_NS = 2**63 - 1


class ElectionRegister:
    """The switch's leadership lease cell + election audit logs."""

    def __init__(self) -> None:
        self.term = 0
        self.leader_id: Optional[int] = None
        self.expires_at_ns = -1
        #: (term, leader_id, granted_at_ns) per new-term grant
        self.history: List[Tuple[int, int, int]] = []
        self.history_overflows = 0
        #: (stamped_term, register_term) per accepted fenced action
        self.actions: List[Tuple[int, int]] = []
        self.action_overflows = 0
        self.elections_held = 0
        self.renewals = 0
        self.denials = 0

    # -- arbitration -------------------------------------------------------

    def request(
        self, candidate_id: int, term: int, now: int, lease_ns: int
    ) -> ElectionAck:
        """CAS on the lease cell; returns the ack to send the candidate.

        Renewal: the incumbent asking with the current term while its
        lease is still live (inclusive boundary). New grant: no leader
        yet, or the lease lapsed — the term increments, making every
        older fencing token stale. Anything else is denied with the
        current cell contents, so a deposed leader learns its fate on
        its next renewal attempt.
        """
        live = self.leader_id is not None and now <= self.expires_at_ns
        if live:
            if candidate_id == self.leader_id and term == self.term:
                self.expires_at_ns = now + lease_ns
                self.renewals += 1
                return ElectionAck(
                    leader_id=candidate_id,
                    term=self.term,
                    granted=True,
                    expires_at_ns=self.expires_at_ns,
                )
            self.denials += 1
            return ElectionAck(
                leader_id=self.leader_id,
                term=self.term,
                granted=False,
                expires_at_ns=self.expires_at_ns,
            )
        self.term += 1
        self.leader_id = candidate_id
        self.expires_at_ns = now + lease_ns
        self.elections_held += 1
        if len(self.history) >= MAX_HISTORY:
            self.history_overflows += 1
        else:
            self.history.append((self.term, candidate_id, now))
        return ElectionAck(
            leader_id=candidate_id,
            term=self.term,
            granted=True,
            expires_at_ns=self.expires_at_ns,
        )

    def grant_local(self, leader_id: int, now: int) -> None:
        """Hand term 1 to an unreplicated controller, with no packet.

        A controller group of one needs no election: its binding grants
        the first term on the spot, with a lease that never lapses. A
        register that has already granted a term is left alone.
        """
        if self.term:
            return
        self.term = 1
        self.leader_id = leader_id
        self.expires_at_ns = FOREVER_NS
        self.elections_held += 1
        self.history.append((1, leader_id, now))

    # -- fencing audit -----------------------------------------------------

    def note_action(self, stamped_term: int) -> None:
        """Record one accepted fenced action for the oracle."""
        if len(self.actions) >= MAX_ACTION_LOG:
            self.action_overflows += 1
            return
        self.actions.append((stamped_term, self.term))

    # -- inspection --------------------------------------------------------

    def current_leader(self, now: int) -> Optional[int]:
        """The live leader at ``now``, or None if the lease lapsed."""
        if self.leader_id is not None and now <= self.expires_at_ns:
            return self.leader_id
        return None

    def audit(self) -> dict:
        return {
            "term": self.term,
            "leader_id": self.leader_id,
            "expires_at_ns": self.expires_at_ns,
            "elections_held": self.elections_held,
            "renewals": self.renewals,
            "denials": self.denials,
            "actions": len(self.actions),
            "action_overflows": self.action_overflows,
        }
