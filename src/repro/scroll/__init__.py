"""The Scroll: FixD's logging component (paper Section 3.1 / 4.1, Figure 1).

The Scroll is the common log where every component of the distributed
application records its *nondeterministic* actions and their outcomes —
message sends and receipts, random draws, clock reads, timer firings and
injected channel faults.  From the Scroll the library can

* reconstruct a globally consistent trace of a run
  (:class:`repro.scroll.scroll.Scroll`),
* replay a process deterministically and detect divergence
  (:class:`repro.scroll.replayer.Replayer`), and
* feed the Investigator with the execution prefix that preceded a fault.

Two interception granularities are provided, mirroring the paper's two
implementation proposals: *library-level* recording in the style of
liblog and *syscall-level* recording in the style of Flashback, plus a
*black-box* mode that only records interactions with remote components.

For long runs the Scroll is *tiered*: constructed with a ``hot_window``
it keeps only the most recent entries in memory and evicts older ones
into sealed, content-addressed segments — the same segment log a
durable run's sidecar names — preserving every query contract, and
replay equivalence, while resident memory tracks the hot window instead
of the run length.
"""

from repro.scroll.entry import ActionKind, ScrollEntry
from repro.scroll.interceptor import InterceptionMode, RecordingPolicy, ReplayRandomStream
from repro.scroll.recorder import ScrollRecorder
from repro.scroll.replayer import ProcessReplay, Replayer, ReplayReport
from repro.scroll.scroll import Scroll, ScrollView
from repro.scroll.storage import load_scroll, save_scroll

__all__ = [
    "ActionKind",
    "ScrollEntry",
    "InterceptionMode",
    "RecordingPolicy",
    "ReplayRandomStream",
    "ScrollRecorder",
    "ProcessReplay",
    "Replayer",
    "ReplayReport",
    "Scroll",
    "ScrollView",
    "load_scroll",
    "save_scroll",
]
