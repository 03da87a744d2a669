(** Per-node TMF bookkeeping shared by the TMP, the BACKOUTPROCESS and the
    facade.

    The registry holds what this node knows about each transaction passing
    through it: which local volumes it touched, which nodes this node
    transmitted the transid to (its children in the transmission spanning
    tree), and its progress through the commit protocol. The structures are
    owned by the node's TMP process-pair — they survive single processor
    failures with the pair and are lost only in a total node failure. *)

type tx_info = {
  transid : Transid.t;
  mutable local_volumes : string list;  (** Participating volumes here. *)
  mutable children : Tandem_os.Ids.node_id list;
      (** Nodes this node first transmitted the transid to. *)
  mutable voted_yes : bool;
      (** Non-home: replied affirmatively to phase one — locks must now be
          held until the final disposition arrives. *)
  mutable voted_at : Tandem_sim.Sim_time.t option;
      (** When the yes vote left, for the in-doubt residency histogram. *)
  mutable decision_cast : bool;
      (** Home under Paxos Commit: a [Pax_decide] left for the acceptors.
          From that instant a minority acceptor may hold the manifest, so a
          unilateral local abort is no longer sound — only the Paxos
          machinery may settle the outcome. *)
  mutable locally_aborted : bool;
      (** Unilateral abort decision taken before voting. *)
  mutable resolved : Tandem_audit.Monitor_trail.disposition option;
  mutable auto_abort : Tandem_sim.Engine.handle option;
      (** The transaction-time-limit timer; cancelled at resolution. *)
  resolution_lock : Tandem_sim.Fiber_mutex.t;
      (** Serializes commit/abort processing for this transaction: END and
          ABORT can arrive concurrently and must resolve one at a time. *)
}

type node_state = {
  node : Tandem_os.Node.t;
  tx_tables : Tx_table.t;
  monitor : Tandem_audit.Monitor_trail.t;
  trails : (string, Tandem_audit.Audit_trail.t) Hashtbl.t;
  audit_processes : (string, Tandem_audit.Audit_process.t) Hashtbl.t;
  participants : (string, Participant.t) Hashtbl.t;  (** by volume name *)
  registry : (string, tx_info) Hashtbl.t;  (** by transid string *)
  mutable generation : int;
      (** Bumped whenever the registry is destroyed wholesale (total node
          failure). In-flight commit work captures the generation at entry
          and re-checks it at its decision point: a change means every
          volatile fact gathered so far (registry entries, buffered audit)
          may describe a post-crash shell, so only a durable record may
          answer COMMITTED. *)
  seq_counters : int array;  (** per-processor BEGIN-TRANSACTION counter *)
  tmp_name : string;
  backout_name : string;
}

val make_node_state :
  ?force_window:Tandem_sim.Sim_time.span ->
  node:Tandem_os.Node.t ->
  monitor_volume:Tandem_disk.Volume.t ->
  unit ->
  node_state
(** [force_window] (default 0) is the group-commit window of the monitor
    trail's force daemon. *)

val find_tx : node_state -> Transid.t -> tx_info option

val ensure_tx : node_state -> Transid.t -> tx_info
(** Look up, creating a fresh info (and counting the transaction as known
    here) if absent. *)

val forget_tx : node_state -> Transid.t -> unit
(** Drop the registry entry and {!Tandem_audit.Audit_trail.settle} the
    transaction on each of the node's trails: its audit records stay, kept
    only in encoded form. *)

val add_local_volume : node_state -> Transid.t -> string -> unit

val add_child : node_state -> Transid.t -> Tandem_os.Ids.node_id -> unit

val participants_of : node_state -> Transid.t -> Participant.t list
(** Participant records for the transaction's local volumes. *)

val trails_of : node_state -> Transid.t -> string list
(** Distinct audit-process names covering those volumes. *)

val commit_marker_survives : node_state -> Transid.t -> bool
(** Did the transaction's fast-path commit marker reach oxide? A
    single-node fast-path commit leaves no monitor-trail record: its commit
    decision is the marker forced into its own audit trail, after every
    data image. The trails' post-crash index holds exactly the records that
    were durable when the node died, so a surviving marker means the
    transaction's whole history did. *)
