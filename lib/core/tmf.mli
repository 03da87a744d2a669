(** The Transaction Monitoring Facility, assembled.

    One [Tmf.t] spans the whole network: installing a node gives it
    transaction state tables, a Monitor Audit Trail, a TMP pair, a
    BACKOUTPROCESS pair and a ROLLFORWARD facility; audit trails with their
    AUDITPROCESS pairs and data-volume participants are added as the
    configuration is built. The verbs the terminal layer exposes
    (BEGIN/END/ABORT-TRANSACTION) resolve here. *)

(** Re-exports: [tmf.ml] is the library's root module, so every public
    submodule is surfaced here. *)

module Transid = Transid
module Tx_state = Tx_state
module Tx_table = Tx_table
module Participant = Participant
module Tmf_state = Tmf_state
module Backout = Backout
module Tmp = Tmp
module Rollforward = Rollforward
module Acceptor = Acceptor
module Paxos_commit = Paxos_commit

type t

val create : Tandem_os.Net.t -> t

val install_node :
  t ->
  Tandem_os.Node.t ->
  monitor_volume:Tandem_disk.Volume.t ->
  unit
(** Equip a node with TMF. The TMP runs on processors 0/1 and the
    BACKOUTPROCESS on 1/0 (process-pairs migrate on failures anyway). *)

val add_audit_trail :
  t ->
  node:Tandem_os.Ids.node_id ->
  name:string ->
  volume:Tandem_disk.Volume.t ->
  ?records_per_file:int ->
  unit ->
  unit
(** Create an audit trail on the volume and spawn its AUDITPROCESS pair
    under [name]. *)

val register_participant : t -> Participant.t -> unit

val node_state : t -> Tandem_os.Ids.node_id -> Tmf_state.node_state

val tmp : t -> Tandem_os.Ids.node_id -> Tmp.t

val rollforward : t -> Tandem_os.Ids.node_id -> Rollforward.t

(** {1 The transaction verbs} *)

val begin_transaction :
  t -> node:Tandem_os.Ids.node_id -> cpu:Tandem_os.Ids.cpu_id -> Transid.t
(** Allocate a transid homed here and broadcast it in active state to every
    processor of the node. *)

val end_transaction :
  t ->
  self:Tandem_os.Process.t ->
  Transid.t ->
  (unit, [ `Aborted of string | `Unknown_outcome ]) result

val abort_transaction :
  t ->
  self:Tandem_os.Process.t ->
  reason:string ->
  Transid.t ->
  (unit, [ `Too_late | `Unreachable ]) result
(** ABORT-TRANSACTION at the home node. *)

(** {1 Transid propagation (the File System's job)} *)

val ensure_known :
  t ->
  self:Tandem_os.Process.t ->
  from_node:Tandem_os.Ids.node_id ->
  to_node:Tandem_os.Ids.node_id ->
  Transid.t ->
  (unit, [ `Unreachable ]) result
(** Before the first transmission of a transid to another node, run the
    remote-transaction-begin exchange and record the spanning-tree edge. *)

val note_local_participant :
  t -> node:Tandem_os.Ids.node_id -> volume:string -> Transid.t -> unit
(** Record that the transaction touched a volume on this node. *)

(** {1 Observation} *)

val state_of :
  t ->
  node:Tandem_os.Ids.node_id ->
  cpu:Tandem_os.Ids.cpu_id ->
  Transid.t ->
  Tx_state.t option

val disposition :
  t ->
  node:Tandem_os.Ids.node_id ->
  Transid.t ->
  Tandem_audit.Monitor_trail.disposition option
(** Direct read of a node's Monitor Audit Trail (observation only — remote
    code must use {!Tmp.query_disposition}). *)

val transaction_is_live : t -> node:Tandem_os.Ids.node_id -> Transid.t -> bool
(** Whether this node's registry still carries the transaction. A lock whose
    owner is not live is stale (its release notification was lost in a
    takeover window) and may be reaped. *)
