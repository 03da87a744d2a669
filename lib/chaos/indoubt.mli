(** Pinned in-doubt transactions: the surgical half of the
    [home-crash-phase2] scenario, the commit-protocol bench and
    [tandem indoubt], which share one wreck ({!build_wreck}).

    A pinned transaction is a conserving two-account transfer begun at a
    chosen home node whose writes and yes vote live at a participant node;
    the home's commit decision is optionally made durable (a forced monitor
    record under 2PC, an acceptor round under Paxos Commit) and phase two
    is never sent. Crashing the home right after reproduces, byte-stably,
    the exact window where 2PC blocks and Paxos Commit does not. *)

open Tandem_encompass

type pinned = {
  transid : Tmf.Transid.t option;
      (** [None] when the setup failed (surfaced as a failing check). *)
  from_account : int;
  to_account : int;
  amount : int;
}

val partition_base : Workload.bank_spec -> node:Tandem_os.Ids.node_id -> int
(** Test hook: first account key on the node's ACCOUNT partition. *)

val drive_client :
  ?bound_ms:int ->
  Cluster.t ->
  node:Tandem_os.Ids.node_id ->
  (Tandem_os.Process.t -> unit) ->
  unit
(** Spawn [body] as a client on the node's processor 1 and run the engine
    in millisecond slices until it returns, or for at most [bound_ms]
    (default 1000) simulated milliseconds. *)

val pin_transfer :
  Cluster.t ->
  home:Tandem_os.Ids.node_id ->
  participant:Tandem_os.Ids.node_id ->
  from_account:int ->
  to_account:int ->
  amount:int ->
  pinned
(** Test hook: begin at [home], transfer [amount] between the two accounts (both
    must live on [participant]'s partition), then drive phase one at the
    participant, leaving it voted-yes with locks held. *)

val decide_2pc : Cluster.t -> home:Tandem_os.Ids.node_id -> pinned -> bool
(** Test hook: force the home's Committed monitor record — a 2PC coordinator
    dead between commit point and phase two. *)

val decide_paxos :
  Cluster.t ->
  home:Tandem_os.Ids.node_id ->
  participants:Tandem_os.Ids.node_id list ->
  acceptor_count:int ->
  pinned ->
  bool
(** Test hook: cast the home's combined vote-plus-manifest to the acceptors — a
    Paxos Commit coordinator dead between its decision round and phase two. *)

type wreck = {
  bank : Harness.bank;
  home : Tandem_os.Ids.node_id;  (** Node 3, dead once the caller crashes it. *)
  participant : Tandem_os.Ids.node_id;  (** Node 2, holding both votes. *)
  undecided : pinned;  (** The home never decided it. *)
  decided : pinned;  (** Its commit decision is durable. *)
  pinned_ok : bool;  (** Both pinned and the decision made durable. *)
}

val build_wreck :
  ?transfers:bool ->
  seed:int ->
  quick:bool ->
  [ `Two_phase | `Paxos of int ] ->
  wreck
(** The in-doubt wreck before its crash: a three-node bank
    ({!Harness.build_bank} with the protocol and a 1 s transaction time
    limit) run to 60 ms, then two transfers of 50 pinned at the participant
    with the home's decision made durable for the second. The caller picks
    the crash instant. *)

val in_doubt_count : Cluster.t -> node:Tandem_os.Ids.node_id -> int
(** Voted-yes transactions still holding locks at the node. *)

val disposition :
  Cluster.t ->
  node:Tandem_os.Ids.node_id ->
  pinned ->
  Tandem_audit.Monitor_trail.disposition option
(** The node's monitor-trail verdict on the pinned transaction. *)

val disposition_name :
  Tandem_audit.Monitor_trail.disposition option -> string
(** ["committed"], ["aborted"] or ["none"] — byte-stable check details. *)
