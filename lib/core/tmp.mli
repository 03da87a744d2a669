(** The Transaction Monitor Process: one process-pair per node, coordinating
    transaction state change.

    For transactions that stay within the node, the TMP runs the abbreviated
    two-phase commit: phase one writes all the transaction's audit records
    to the trails (participants flush, trails force); the commit record in
    the Monitor Audit Trail then commits the transaction; phase two releases
    its locks.

    For distributed transactions, TMP-to-TMP messages travel the spanning
    tree along which the transid was transmitted. *Critical-response*
    messages (remote begin, phase one/prepare) require the destination to be
    reachable and affirmative, transitively; a participant that is
    unreachable, or that already aborted unilaterally, makes the commit
    fail. *Safe-delivery* messages (phase two commit, abort) are queued and
    retransmitted until acknowledged — their delivery is guaranteed but not
    time-critical, so a participant cut off after its affirmative vote holds
    the transaction's locks until the network heals (or an operator forces
    the disposition). *)

type t

(** The TMP-to-TMP wire protocol (exposed for tests and benchmarks). *)
type Tandem_os.Message.payload +=
  | Client_end of Transid.t
  | Client_abort of { transid : Transid.t; reason : string }
  | Remote_begin of Transid.t
  | Prepare of Transid.t
  | Phase2_commit of Transid.t
  | Phase2_abort of Transid.t
  | Query_disposition of Transid.t
  | Query_status of Transid.t
  | Ack
  | Committed_reply
  | Aborted_reply of string
  | Prepared_reply
  | Readonly_reply
      (** Phase-one vote of a participant that wrote no audit images: it
          released its locks at the vote and left the protocol — prune it
          from phase two. *)
  | Refused_reply of string
  | Registered_reply
  | Known_reply
  | Disposition_reply of Tandem_audit.Monitor_trail.disposition option
  | Status_reply of {
      disposition : Tandem_audit.Monitor_trail.disposition option;
      live : bool;
    }
      (** Answer to [Query_status]: the monitor trail's verdict plus whether
          the transid is still live (registered) at the answering node. *)

val spawn :
  net:Tandem_os.Net.t ->
  state:Tmf_state.node_state ->
  primary_cpu:Tandem_os.Ids.cpu_id ->
  backup_cpu:Tandem_os.Ids.cpu_id ->
  t

val safe_deliver : t -> Tandem_os.Ids.node_id -> Tandem_os.Message.payload -> unit
(** Queue one safe-delivery (guaranteed, not time-critical) message for the
    destination node and kick the retransmission fiber. Exposed for tests
    and benchmarks; the TMP itself queues phase-two messages here. *)

val arm_transaction_timer : t -> Transid.t -> unit
(** Start the transaction-time-limit clock for a transid known at this
    node. Armed automatically for remote begins; the facade arms it at
    BEGIN-TRANSACTION. This clock carries a node's right to abort
    unilaterally before its phase-one vote: a transaction that has not
    voted yes here when the limit passes is backed out and its locks
    released, whatever its home node can say (a participant cut off from
    its home included). A client's {!abort_transaction} is the other way
    in. *)

(** {1 Client operations} (run inside any fiber) *)

val end_transaction :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  home:Tandem_os.Ids.node_id ->
  Transid.t ->
  (unit, [ `Aborted of string | `Unknown_outcome ]) result
(** Execute END-TRANSACTION at the home TMP. [`Unknown_outcome] means the
    request itself failed (for example the home node is unreachable) — the
    caller must query the disposition before retrying a new transaction. *)

val abort_transaction :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  node:Tandem_os.Ids.node_id ->
  reason:string ->
  Transid.t ->
  (unit, [ `Too_late | `Unreachable ]) result
(** Unilateral/client abort at the given node's TMP. [`Too_late] if the node
    has already voted yes (a non-home participant) or committed. *)

val remote_begin :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  to_node:Tandem_os.Ids.node_id ->
  Transid.t ->
  ([ `Registered | `Known ], [ `Unreachable ]) result
(** Critical-response "remote transaction begin": make the destination node
    broadcast the transid in active state, before any work is sent there. *)

val query_disposition :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  node:Tandem_os.Ids.node_id ->
  Transid.t ->
  (Tandem_audit.Monitor_trail.disposition option, [ `Unreachable ]) result
(** Consult a node's Monitor Audit Trail (the first step of the manual
    override procedure, and ROLLFORWARD's negotiation). *)

val force_disposition :
  t ->
  self:Tandem_os.Process.t ->
  Transid.t ->
  Tandem_audit.Monitor_trail.disposition ->
  unit
(** Operator override on a node holding locks for an in-doubt transaction:
    impose the disposition learned out-of-band from the home node. *)

val in_doubt_transactions : t -> Tmf_state.tx_info list
(** Voted-yes participant transactions still awaiting their verdict at this
    node (locks held), sorted by transid. What `tandem indoubt` lists and
    the chaos checker probes. *)

val resolve_in_doubt : t -> self:Tandem_os.Process.t -> Transid.t -> unit
(** One resolution attempt for an in-doubt participant transaction, by
    whichever protocol the cluster runs: under 2PC/presumed-abort a home
    status probe, under Paxos Commit a learner read falling back to a
    recovery ballot. No-op when the answer is still "keep waiting". *)
