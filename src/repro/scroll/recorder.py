"""The Scroll recorder: a runtime hook that populates a Scroll during a run."""

from __future__ import annotations

from typing import Optional

from repro.dsim.hooks import RuntimeHook
from repro.dsim.message import Message
from repro.scroll.entry import ActionKind
from repro.scroll.interceptor import InterceptionMode, RecordingPolicy
from repro.scroll.scroll import Scroll


class ScrollRecorder(RuntimeHook):
    """Records the cluster's nondeterministic actions onto a :class:`Scroll`.

    The recorder is installed on a cluster with
    ``cluster.add_hook(ScrollRecorder(...))`` — application code does not
    change at all, which is the transparency requirement of Section 3.2.

    The cluster carries each acting process's vector timestamp in the
    hook payload, so the recording fast path never goes back through the
    process table; :meth:`_vt_of` remains only as a fallback for
    environments that invoke the hook interface without timestamps.

    Parameters
    ----------
    scroll:
        The Scroll to append to; when omitted one is created according
        to the policy — tiered (spill-to-disk) when the policy sets a
        ``hot_window``, fully in-memory otherwise.
    policy:
        Which actions to record and how the log is stored (see
        :class:`RecordingPolicy`).  The default records the full
        syscall-level surface so replay and investigation are always
        possible.
    """

    def __init__(
        self,
        scroll: Optional[Scroll] = None,
        policy: Optional[RecordingPolicy] = None,
    ) -> None:
        self.policy = policy or RecordingPolicy(InterceptionMode.SYSCALL)
        if scroll is None:
            scroll = Scroll(
                hot_window=self.policy.hot_window,
                storage_dir=self.policy.spill_dir,
            )
        self.scroll = scroll
        self._cluster = None

    def attach(self, cluster) -> None:
        self._cluster = cluster
        register = getattr(cluster, "register_scroll", None)
        if register is not None:
            register(self.scroll)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _message_detail(self, message: Message) -> dict:
        record = message.to_record()
        if not self.policy.record_payloads:
            record = dict(record)
            record["payload"] = None
        return {"message": record}

    def _vt_of(self, pid: str):
        """Slow-path timestamp lookup for callers that pass no ``vt``."""
        if self._cluster is None:
            return None
        try:
            return self._cluster.process(pid).vector_timestamp
        except Exception:
            return None

    def _record(self, pid: str, kind: ActionKind, time: float, detail: dict, vt=None) -> None:
        if not self.policy.should_record(kind):
            return
        if vt is None:
            vt = self._vt_of(pid)
        self.scroll.record(pid, kind, time, detail, vt=vt)

    # ------------------------------------------------------------------
    # hook notifications
    # ------------------------------------------------------------------
    def on_send(self, pid, message, time, vt=None):
        self._record(pid, ActionKind.SEND, time, self._message_detail(message), vt)

    def on_receive(self, pid, message, time, vt=None):
        self._record(pid, ActionKind.RECEIVE, time, self._message_detail(message), vt)

    def on_drop(self, message, time, vt=None):
        self._record(message.src, ActionKind.DROP, time, self._message_detail(message), vt)

    def on_duplicate(self, message, time, vt=None):
        self._record(message.src, ActionKind.DUPLICATE, time, self._message_detail(message), vt)

    def on_timer(self, pid, name, time, vt=None, payload=None):
        # The payload rides along (when recorded) so replay-forward can
        # fire timers whose set_timer predates the replay window; the
        # common payload-less timer keeps its compact detail shape.
        detail = {"name": name}
        if payload is not None and self.policy.record_payloads:
            detail["payload"] = payload
        self._record(pid, ActionKind.TIMER, time, detail, vt)

    def on_random(self, pid, method, value, time, vt=None):
        self._record(pid, ActionKind.RANDOM, time, {"method": method, "value": value}, vt)

    def on_clock_read(self, pid, value, vt=None):
        time = self._cluster.now if self._cluster is not None else value
        self._record(pid, ActionKind.CLOCK_READ, time, {"value": value}, vt)

    def on_crash(self, pid, time, vt=None):
        self._record(pid, ActionKind.CRASH, time, {}, vt)

    def on_recover(self, pid, time, vt=None):
        self._record(pid, ActionKind.RECOVER, time, {}, vt)

    def on_corruption(self, pid, description, time, vt=None):
        self._record(pid, ActionKind.CORRUPTION, time, {"description": description}, vt)

    def on_invariant_violation(self, pid, name, detail, time, vt=None):
        self._record(pid, ActionKind.VIOLATION, time, {"invariant": name, "detail": detail}, vt)
        return None
