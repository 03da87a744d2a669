(** Per-processor transaction state tables and the intra-node broadcast.

    Every transaction state change is broadcast over the interprocessor bus
    to *all* processors of the node, regardless of which participated — the
    bus is fast and reliable enough that selective notification is not worth
    its bookkeeping (the design decision experiment E8 quantifies). Each
    processor keeps its own copy of the table; a DISCPROCESS consults the
    copy on its own processor. The copies live in one table keyed by
    transid with a slot per processor, so a broadcast hashes the transid
    once rather than once per processor.

    When a terminal state's broadcast lands, the transid leaves the table —
    "once the ended state has completed, the transid leaves the system". *)

type t

val create : Tandem_os.Node.t -> t

val broadcast : t -> Tandem_sim.Transid.t -> Tx_state.t -> int
(** Send the state change to every processor up now, one bus message each,
    and return how many were sent. Every copy, the sender's own included,
    lands [Hw_config.bus_latency] later.

    All copies land in one engine event, which applies the change to each
    of those processors in ascending order, skipping one that has failed
    since. That schedule equals one event per processor: those events
    would be posted back to back at one instant with one delay, so they
    hold consecutive sequence numbers at one firing time, and no other
    event can run between them. An illegal transition raises
    [Invalid_argument] out of the event at the processor where it is
    found; the processors after it in that broadcast are not updated. *)

val reset : t -> unit
(** Total node failure: every processor's copy of the table dies with its
    memory. Without this, fibers that survive the simulated failure keep
    reading pre-crash [Active] states and write on behalf of transactions
    that no longer exist. *)

val state_on :
  t -> cpu:Tandem_os.Ids.cpu_id -> Tandem_sim.Transid.t -> Tx_state.t option
(** The state as processor [cpu] currently sees it ([None] before the
    Active broadcast arrives or after the transid left the system). *)

val broadcasts_sent : t -> int
(** Test hook: total per-processor messages consumed by this table's
    broadcasts; E8 reads the same count as [tmf.state_broadcast_msgs]. *)

val transition_census : t -> ((Tx_state.t option * Tx_state.t) * int) list
(** How many times each (from, to) transition was applied on processor 0 —
    the state-machine census behind experiment F3. *)
