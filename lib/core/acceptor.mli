(** The Paxos Commit acceptor process ([$ACCEPT], one per node).

    Gray & Lamport's Paxos Commit replicates the commit verdict across
    [2f+1] of these instead of trusting the home node's Monitor Audit Trail
    alone. Each transaction owns a small set of single-decree Paxos
    registers at the acceptors:

    - one {e vote instance} per voted-yes participant ([Rm node]), whose
      value is that node's [Prepared]/[Aborted_vote] phase-one vote, cast at
      the pre-assigned ballot 0 by the participant itself;
    - one {e commit instance}, whose ballot-0 value is the home node's
      participant [Manifest] (written together with the home's own vote as
      the commit point) and whose recovery value is [Manifest_aborted].

    A learner with any acceptor majority computes the verdict: committed iff
    the commit instance chose a manifest and every listed vote instance
    chose [Prepared]. A recovery leader drives unchosen instances to a
    verdict with ballots above 0 — the non-blocking path a plain 2PC
    participant does not have.

    Acceptor state is forced to the node's system volume before any reply,
    so it is on oxide: a total node failure neither loses nor rolls it
    back. A force in flight across the failure installs nothing and answers
    nobody. *)

open Tandem_os

val process_name : string
(** ["$ACCEPT"]. *)

type instance = Commit_instance | Rm of Ids.node_id

type value =
  | Prepared
  | Aborted_vote
  | Manifest of Ids.node_id list
  | Manifest_aborted

type Message.payload +=
  | Pax_p1a of { transid : string; instance : instance; ballot : int }
  | Pax_p1b of { promised : int; accepted : (int * value) option }
  | Pax_p2a of {
      transid : string;
      instance : instance;
      ballot : int;
      value : value;
    }
  | Pax_p2b
  | Pax_decide of {
      transid : string;
      home : Ids.node_id;
      participants : Ids.node_id list;
    }
  | Pax_read of string
  | Pax_state of (instance * int * value) list
  | Pax_nack of { promised : int }

val instance_compare : instance -> instance -> int

val spawn :
  net:Net.t ->
  state:Tmf_state.node_state ->
  volume:Tandem_disk.Volume.t ->
  primary_cpu:Ids.cpu_id ->
  backup_cpu:Ids.cpu_id ->
  unit
(** Install the acceptor process-pair on the node, forcing its promises and
    acceptances to [volume] (the node's system volume). *)
