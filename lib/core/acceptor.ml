open Tandem_sim
open Tandem_os

let process_name = "$ACCEPT"

type instance = Commit_instance | Rm of Ids.node_id

type value =
  | Prepared
  | Aborted_vote
  | Manifest of Ids.node_id list
  | Manifest_aborted

type Message.payload +=
  | Pax_p1a of { transid : Transid.t; instance : instance; ballot : int }
  | Pax_p1b of { promised : int; accepted : (int * value) option }
  | Pax_p2a of {
      transid : Transid.t;
      instance : instance;
      ballot : int;
      value : value;
    }
  | Pax_p2b
  | Pax_decide of {
      transid : Transid.t;
      home : Ids.node_id;
      participants : Ids.node_id list;
    }
  | Pax_read of Transid.t
  | Pax_state of (instance * int * value) list
  | Pax_nack of { promised : int }

let instance_compare a b =
  match (a, b) with
  | Commit_instance, Commit_instance -> 0
  | Commit_instance, Rm _ -> -1
  | Rm _, Commit_instance -> 1
  | Rm x, Rm y -> compare x y

(* One Paxos register. [promised] is the highest ballot granted a phase-one
   promise or accepted a phase-two value; [accepted] is the latest accepted
   (ballot, value). Ballot 0 is pre-promised to the instance's natural
   proposer (each participant for its own vote, the home node for the
   commit instance), which is what lets failure-free votes skip phase one
   entirely. *)
type entry = { mutable promised : int; mutable accepted : (int * value) option }

type t = {
  net : Net.t;
  node_state : Tmf_state.node_state;
  daemon : Tandem_disk.Force_daemon.t;
  registers : (string, (instance * entry) list ref) Hashtbl.t;
}

let counter t name = Metrics.counter (Net.metrics t.net) ("acceptor." ^ name)

let entry_for t transid instance =
  let key = Transid.to_string transid in
  let row =
    match Hashtbl.find_opt t.registers key with
    | Some row -> row
    | None ->
        let row = ref [] in
        Hashtbl.replace t.registers key row;
        row
  in
  match List.assoc_opt instance !row with
  | Some entry -> entry
  | None ->
      let entry = { promised = 0; accepted = None } in
      row := (instance, entry) :: !row;
      entry

(* Every promise and acceptance is forced to the acceptor's system volume
   before the reply leaves — the acceptor's word, once given, survives its
   node's failure (the register tables model the on-oxide state, which a
   total node failure does not touch). A force that rode across a node
   failure proves nothing: the write died with the volatile buffers, so
   neither the install nor the reply happens — the requester sees silence,
   exactly as if the message had been lost.

   The force suspends the fiber, and concurrent messages for the same
   register run their handlers inside that window — so any check made
   before the force is stale by the time it returns. Every handler must
   re-validate against the entry's CURRENT state after the force and build
   its reply from that state; installing from the pre-force snapshot lets
   a low ballot regress a promise made during the window, or a phase-one
   reply omit a value accepted during it. *)
let forced t =
  let generation = t.node_state.Tmf_state.generation in
  Tandem_disk.Force_daemon.force t.daemon;
  Metrics.incr (counter t "forces");
  t.node_state.Tmf_state.generation = generation

let nack t process message ~promised =
  Metrics.incr (counter t "nacks");
  Rpc.reply t.net ~self:process ~to_:message (Pax_nack { promised })

let handle t process message =
  match message.Message.payload with
  | Pax_p1a { transid; instance; ballot } ->
      Process.spawn_fiber process (fun () ->
          let entry = entry_for t transid instance in
          if ballot < entry.promised then
            nack t process message ~promised:entry.promised
          else if forced t then begin
            if ballot < entry.promised then
              (* A higher ballot got promised or accepted while this fiber
                 waited on the force. *)
              nack t process message ~promised:entry.promised
            else begin
              Metrics.incr (counter t "promises");
              entry.promised <- max entry.promised ballot;
              (* The reply reports the accepted value as of install time —
                 a promise must name everything this register accepted
                 below its ballot, including a value that landed during
                 the force window. *)
              Rpc.reply t.net ~self:process ~to_:message
                (Pax_p1b { promised = ballot; accepted = entry.accepted })
            end
          end)
  | Pax_p2a { transid; instance; ballot; value } ->
      Process.spawn_fiber process (fun () ->
          let entry = entry_for t transid instance in
          if ballot < entry.promised then
            nack t process message ~promised:entry.promised
          else if forced t then begin
            if ballot < entry.promised then
              nack t process message ~promised:entry.promised
            else begin
              Metrics.incr (counter t "accepts");
              entry.promised <- max entry.promised ballot;
              entry.accepted <- Some (ballot, value);
              Rpc.reply t.net ~self:process ~to_:message Pax_p2b
            end
          end)
  | Pax_decide { transid; home; participants } ->
      (* The home's combined ballot-0 message: its own Prepared vote plus
         the participant manifest, riding one force. Writing the manifest is
         the commit point — it names exactly the voted-yes instances whose
         Prepared votes are already replicated, so any majority learner can
         compute the verdict from here on. *)
      Process.spawn_fiber process (fun () ->
          let vote = entry_for t transid (Rm home) in
          let commit = entry_for t transid Commit_instance in
          let superseded () = vote.promised > 0 || commit.promised > 0 in
          let nack_superseded () =
            (* A recovery leader already moved these instances to a higher
               ballot: the home has been superseded and must learn the
               chosen verdict instead of assuming its own. *)
            nack t process message
              ~promised:(max vote.promised commit.promised)
          in
          if superseded () then nack_superseded ()
          else if forced t then begin
            if superseded () then nack_superseded ()
            else begin
              Metrics.incr (counter t "accepts");
              vote.accepted <- Some (0, Prepared);
              commit.accepted <- Some (0, Manifest participants);
              Rpc.reply t.net ~self:process ~to_:message Pax_p2b
            end
          end)
  | Pax_read transid ->
      (* Reads promise nothing, so they cost no force. *)
      Metrics.incr (counter t "reads");
      let state =
        match Hashtbl.find_opt t.registers (Transid.to_string transid) with
        | None -> []
        | Some row ->
            List.filter_map
              (fun (instance, entry) ->
                match entry.accepted with
                | Some (ballot, value) -> Some (instance, ballot, value)
                | None -> None)
              !row
            |> List.sort (fun (a, _, _) (b, _, _) -> instance_compare a b)
      in
      Rpc.reply t.net ~self:process ~to_:message (Pax_state state)
  | _ -> ()

let service t pair process = Process_pair.serve pair process (handle t process)

let spawn ~net ~state ~volume ~primary_cpu ~backup_cpu =
  let t =
    {
      net;
      node_state = state;
      daemon = Tandem_disk.Force_daemon.create volume;
      registers = Hashtbl.create 64;
    }
  in
  ignore
    (Process_pair.create ~net ~node:state.Tmf_state.node ~name:process_name
       ~primary_cpu ~backup_cpu
       ~service:(service t))
