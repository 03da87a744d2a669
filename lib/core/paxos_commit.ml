open Tandem_sim
open Tandem_os
open Tandem_audit

type learned = Decided of Monitor_trail.disposition | Unknown

(* A pure function of the node set, which is immutable for the life of a
   net in this simulation (nodes are all added at boot; [Net] has no
   remove, and a failed node stays in the set). That is what
   makes recomputing the set here safe: every caller — voter, home,
   learner, recovery leader — derives the same quorum set for a
   transaction across its whole life. If membership ever became dynamic,
   the set would have to be pinned per transaction instead, e.g. carried
   in the manifest (see Reconfigurable Atomic Transaction Commit,
   PAPERS.md). *)
let acceptor_nodes net count =
  let ids = List.sort compare (List.map Node.id (Net.nodes net)) in
  List.filteri (fun index _ -> index < count) ids

let quorum_of acceptors = (List.length acceptors / 2) + 1

let tmp_counter net name = Metrics.counter (Net.metrics net) ("tmp." ^ name)

(* ------------------------------------------------------------------ *)
(* Fan-out to the acceptor set. Requests run concurrently (the replies are
   latency-bound: a round trip plus the acceptor's force); a currently
   unreachable acceptor is skipped without burning an RPC timeout, exactly
   as safe delivery does. Each request-plus-reply is charged to the
   transaction's span. *)

let fanout net ~self ~acceptors ~transid payload =
  let own = Cpu.node (Process.cpu self) in
  let transid = Transid.to_string transid in
  let results = ref [] in
  Process.iter_concurrently self
    (fun acceptor ->
      if Net.reachable net own acceptor then begin
        (* One message charged for the request now; the reply's only when
           it actually arrives — a timed-out call put one message on the
           wire, not a round trip. *)
        Span.add_messages (Net.spans net) transid 1;
        match
          Rpc.call_name net ~self ~node:acceptor ~name:Acceptor.process_name
            ~retries:0 payload
        with
        | Ok reply ->
            Span.add_messages (Net.spans net) transid 1;
            results := (acceptor, reply) :: !results
        | Error _ -> ()
      end)
    acceptors;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Ballot-0 fast path: participants cast their own votes, the home casts
   its vote plus the manifest. *)

let cast_vote net ~self ~acceptors transid =
  Metrics.incr (tmp_counter net "paxos_votes");
  let own = Cpu.node (Process.cpu self) in
  let replies =
    fanout net ~self ~acceptors ~transid
      (Acceptor.Pax_p2a
         {
           transid;
           instance = Acceptor.Rm own;
           ballot = 0;
           value = Acceptor.Prepared;
         })
  in
  let acks =
    List.length
      (List.filter (fun (_, r) -> r = Acceptor.Pax_p2b) replies)
  in
  if acks >= quorum_of acceptors then Ok ()
  else Error "acceptor quorum unavailable for vote"

let cast_decision net ~self ~acceptors ~home ~participants transid =
  Metrics.incr (tmp_counter net "paxos_decides");
  let replies =
    fanout net ~self ~acceptors ~transid
      (Acceptor.Pax_decide { transid; home; participants })
  in
  let acks =
    List.length
      (List.filter (fun (_, r) -> r = Acceptor.Pax_p2b) replies)
  in
  if acks >= quorum_of acceptors then Ok ()
  else if
    List.exists
      (fun (_, r) -> match r with Acceptor.Pax_nack _ -> true | _ -> false)
      replies
  then Error `Superseded
  else Error `No_quorum

(* ------------------------------------------------------------------ *)
(* Learner: the verdict from whatever majority answers a read. A value is
   chosen once a majority of the full acceptor set reports it accepted at
   one ballot; "not chosen" can never be concluded from reads alone — that
   takes a recovery ballot's phase one. *)

let chosen_value ~quorum states instance =
  let accepted =
    List.filter_map
      (fun (_, entries) ->
        List.find_map
          (fun (i, ballot, value) ->
            if Acceptor.instance_compare i instance = 0 then
              Some (ballot, value)
            else None)
          entries)
      states
  in
  let count candidate =
    List.length (List.filter (fun a -> a = candidate) accepted)
  in
  List.find_map
    (fun candidate ->
      if count candidate >= quorum then Some (snd candidate) else None)
    accepted

let learn net ~self ~acceptors transid =
  Metrics.incr (tmp_counter net "paxos_learns");
  let states =
    List.filter_map
      (fun (node, reply) ->
        match reply with
        | Acceptor.Pax_state entries -> Some (node, entries)
        | _ -> None)
      (fanout net ~self ~acceptors ~transid (Acceptor.Pax_read transid))
  in
  let quorum = quorum_of acceptors in
  match chosen_value ~quorum states Acceptor.Commit_instance with
  | Some Acceptor.Manifest_aborted -> Decided Monitor_trail.Aborted
  | Some (Acceptor.Manifest participants) ->
      let vote participant =
        chosen_value ~quorum states (Acceptor.Rm participant)
      in
      if
        List.for_all
          (fun participant -> vote participant = Some Acceptor.Prepared)
          participants
      then Decided Monitor_trail.Committed
      else if
        List.exists
          (fun participant -> vote participant = Some Acceptor.Aborted_vote)
          participants
      then Decided Monitor_trail.Aborted
      else Unknown
  | Some _ | None -> Unknown

(* ------------------------------------------------------------------ *)
(* Recovery leader: complete stuck instances at a ballot above 0. Ballots
   are [round * stride + node] with [stride] strictly above every node id
   in the network, so concurrent leaders on different nodes can never mint
   the same ballot number (a fixed stride would collide as soon as a node
   id reached it: node 0 round 2 and node 64 round 1 both encode 128 at
   stride 64). The stride is a pure function of the immutable node set, so
   every leader uses the same encoding. A nacked round retries higher,
   bounded — contention is at most the handful of surviving nodes whose
   in-doubt timers fired together. *)

let max_rounds = 8

let ballot_stride net =
  1 + List.fold_left (fun hi node -> max hi (Node.id node)) 0 (Net.nodes net)

let decree net ~self ~acceptors ~transid ~instance ~default =
  let own = Cpu.node (Process.cpu self) in
  let stride = ballot_stride net in
  let quorum = quorum_of acceptors in
  let rec round n =
    if n > max_rounds then Error `Contended
    else begin
      let ballot = (n * stride) + own in
      let replies =
        fanout net ~self ~acceptors ~transid
          (Acceptor.Pax_p1a { transid; instance; ballot })
      in
      let granted =
        List.filter_map
          (fun (_, reply) ->
            match reply with
            | Acceptor.Pax_p1b { accepted; _ } -> Some accepted
            | _ -> None)
          replies
      in
      if List.length granted < quorum then Error `Unreachable
      else begin
        (* Phase-one safety: propose the highest-ballot accepted value if
           any promise carried one; only a fully free instance may take the
           leader's default. *)
        let value =
          List.fold_left
            (fun best accepted ->
              match (best, accepted) with
              | None, Some (b, v) -> Some (b, v)
              | Some (b0, _), Some (b, v) when b > b0 -> Some (b, v)
              | best, _ -> best)
            None granted
          |> Option.fold ~none:default ~some:snd
        in
        let accepts =
          List.length
            (List.filter
               (fun (_, reply) -> reply = Acceptor.Pax_p2b)
               (fanout net ~self ~acceptors ~transid
                  (Acceptor.Pax_p2a { transid; instance; ballot; value })))
        in
        if accepts >= quorum then Ok value else round (n + 1)
      end
    end
  in
  round 1

let recover net ~self ~acceptors transid =
  Metrics.incr (tmp_counter net "paxos_recoveries");
  match
    decree net ~self ~acceptors ~transid ~instance:Acceptor.Commit_instance
      ~default:Acceptor.Manifest_aborted
  with
  | Error _ as e -> e
  | Ok Acceptor.Manifest_aborted -> Ok Monitor_trail.Aborted
  | Ok (Acceptor.Manifest participants) ->
      let rec votes verdict = function
        | [] ->
            Ok
              (if verdict then Monitor_trail.Committed
               else Monitor_trail.Aborted)
        | participant :: rest -> (
            match
              decree net ~self ~acceptors ~transid
                ~instance:(Acceptor.Rm participant)
                ~default:Acceptor.Aborted_vote
            with
            | Ok Acceptor.Prepared -> votes verdict rest
            | Ok _ -> votes false rest
            | Error _ as e -> e)
      in
      votes true participants
  | Ok (Acceptor.Prepared | Acceptor.Aborted_vote) ->
      (* The commit instance only ever carries manifests; an alien value
         means a corrupted register, and aborting is the safe reading. *)
      Ok Monitor_trail.Aborted

(* Learner first, leader second: the cheap read answers when the verdict is
   already chosen; only a genuinely open transaction pays recovery ballots
   (which also pin the outcome against a home that might wake up later). *)
let resolve net ~self ~acceptors transid =
  match learn net ~self ~acceptors transid with
  | Decided disposition -> Ok disposition
  | Unknown -> recover net ~self ~acceptors transid
