(** Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit") over
    the {!Acceptor} set — the client side.

    Phase one is unchanged from 2PC: the home TMP still fans prepares down
    the spanning tree and children still flush-and-force. What changes is
    where the verdict lives. Each voted-yes direct participant casts its
    Prepared vote to every acceptor at the pre-assigned ballot 0 before
    answering its prepare; when every child has voted, the home casts one
    combined message — its own vote plus the participant {e manifest} — and
    the instant a majority of acceptors hold that manifest the transaction
    is committed, with no forced monitor-trail write at the home. The
    verdict is then a pure function of any acceptor majority: committed iff
    the manifest is chosen and every listed vote instance chose Prepared.

    When the home dies, any surviving node resolves in-doubt participants
    through {!resolve}: a read answers if the verdict was already chosen,
    and otherwise the caller becomes a recovery leader, driving the open
    instances to a verdict at ballots above 0 (free instances take the
    abort default — a transaction whose manifest never reached a majority
    cannot have committed anywhere). *)

open Tandem_os
open Tandem_audit

type learned = Decided of Monitor_trail.disposition | Unknown

val acceptor_nodes : Net.t -> int -> Ids.node_id list
(** The acceptor set: the lowest [count] node ids in the network — a pure
    function of cluster shape, so every node computes the same set. Smaller
    clusters use every node (the majority shrinks with the set).

    Contract: the network's node set is immutable for the life of the net
    (all nodes are added at boot, before traffic; node failure does not
    remove a node). Every caller therefore derives the same quorum set for
    a transaction across its whole life — were membership dynamic, two
    disjoint "majorities" could both succeed, and the set would have to be
    pinned per transaction instead. *)

val cast_vote :
  Net.t ->
  self:Process.t ->
  acceptors:Ids.node_id list ->
  Tandem_sim.Transid.t ->
  (unit, string) result
(** A voted-yes participant replicates its Prepared vote (its own instance,
    ballot 0) to the acceptors; [Ok] once a majority acknowledged. *)

val cast_decision :
  Net.t ->
  self:Process.t ->
  acceptors:Ids.node_id list ->
  home:Ids.node_id ->
  participants:Ids.node_id list ->
  Tandem_sim.Transid.t ->
  (unit, [ `Superseded | `No_quorum ]) result
(** The home's commit point: its own vote plus the manifest of voted-yes
    participants, one acceptor round, one force each. [`Superseded] means a
    recovery leader got there first — the home must learn the chosen
    verdict rather than assume its own. *)

val learn :
  Net.t ->
  self:Process.t ->
  acceptors:Ids.node_id list ->
  Tandem_sim.Transid.t ->
  learned
(** Read every reachable acceptor and compute the verdict if it is chosen.
    [Unknown] never means "aborted" — only a recovery ballot can turn an
    open instance into a verdict. *)

val recover :
  Net.t ->
  self:Process.t ->
  acceptors:Ids.node_id list ->
  Tandem_sim.Transid.t ->
  (Monitor_trail.disposition, [ `Unreachable | `Contended ]) result
(** Become a recovery leader: drive the commit instance (abort default) and
    every manifest-listed vote instance (abort default) to chosen values at
    a ballot above 0, then compute the verdict. Requires an acceptor
    majority. *)

val resolve :
  Net.t ->
  self:Process.t ->
  acceptors:Ids.node_id list ->
  Tandem_sim.Transid.t ->
  (Monitor_trail.disposition, [ `Unreachable | `Contended ]) result
(** {!learn}, falling back to {!recover} when the verdict is still open. *)
