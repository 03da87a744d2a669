(** Per-processor transaction state tables and the intra-node broadcast.

    Every transaction state change is broadcast over the interprocessor bus
    to *all* processors of the node, regardless of which participated — the
    bus is fast and reliable enough that selective notification is not worth
    its bookkeeping (the design decision experiment E8 quantifies). Each
    processor keeps its own copy of the table; a DISCPROCESS consults the
    copy on its own processor.

    When a terminal state's broadcast lands, the transid leaves the table —
    "once the ended state has completed, the transid leaves the system". *)

type t

val create : Tandem_os.Node.t -> t

val broadcast : t -> Transid.t -> Tx_state.t -> unit
(** Send the state change to every up processor (one bus message each,
    arriving after the bus latency; same-processor copy immediate). Illegal
    transitions raise [Invalid_argument] at apply time. *)

val reset : t -> unit
(** Total node failure: every processor's copy of the table dies with its
    memory. Without this, fibers that survive the simulated failure keep
    reading pre-crash [Active] states and write on behalf of transactions
    that no longer exist. *)

val state_on :
  t -> cpu:Tandem_os.Ids.cpu_id -> Transid.t -> Tx_state.t option
(** The state as processor [cpu] currently sees it ([None] before the
    Active broadcast arrives or after the transid left the system). *)

val broadcasts_sent : t -> int
(** Test hook: total per-processor messages consumed by this table's
    broadcasts; E8 reads the same count as [tmf.state_broadcast_msgs]. *)

val transition_census : t -> ((Tx_state.t option * Tx_state.t) * int) list
(** How many times each (from, to) transition was applied on processor 0 —
    the state-machine census behind experiment F3. *)
