open Tandem_sim
open Tandem_os

type t = {
  node : Node.t;
  (* By transid, one slot per processor: that processor's copy of the
     state. An entry leaves when its last slot empties. *)
  states : Tx_state.t option array Tbl.String.t;
  mutable messages : int;
  census : (Tx_state.t option * Tx_state.t, int) Hashtbl.t;
  broadcast_msgs : Metrics.counter Lazy.t;
}

let all_empty slots = Array.for_all Option.is_none slots

let create node =
  let t =
    {
      node;
      states = Tbl.String.create 64;
      messages = 0;
      census = Hashtbl.create 16;
      broadcast_msgs =
        lazy (Metrics.counter (Node.metrics node) "tmf.state_broadcast_msgs");
    }
  in
  (* A reloaded processor comes back with fresh memory: its copy of the
     table is empty until new broadcasts arrive (stale states would make
     later broadcasts look like illegal transitions). *)
  Node.on_cpu_up node (fun cpu ->
      Tbl.String.filter_map_inplace
        (fun _ slots ->
          slots.(cpu) <- None;
          if all_empty slots then None else Some slots)
        t.states);
  t

let reset t = Tbl.String.reset t.states

(* Apply the change to processor [cpu]'s slot; [present] is
   [Some new_state], allocated once per broadcast. *)
let apply t ~cpu slots key new_state present =
  let current = slots.(cpu) in
  (match (current, new_state) with
  | None, Tx_state.Active -> ()
  | None, _ ->
      (* A processor reloaded mid-transaction may legitimately see a later
         state first; accept it rather than fault the whole node. *)
      ()
  | Some from, _ when from = new_state ->
      (* Idempotent re-broadcast: a takeover re-runs the resolution path and
         announces the state again. *)
      ()
  | Some from, _ ->
      if not (Tx_state.legal_transition from new_state) then
        invalid_arg
          (Printf.sprintf "Tx_table: illegal transition %s -> %s for %s"
             (Tx_state.to_string from)
             (Tx_state.to_string new_state)
             key));
  if cpu = 0 then begin
    let arc = (current, new_state) in
    Hashtbl.replace t.census arc
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.census arc))
  end;
  slots.(cpu) <- (if Tx_state.is_terminal new_state then None else present)

(* An entry that is new joins the table; one left empty leaves it. *)
let settle t key ~known slots =
  if known then begin
    if all_empty slots then Tbl.String.remove t.states key
  end
  else if not (all_empty slots) then Tbl.String.replace t.states key slots

(* One bus delivery to every processor in [up], in order: one lookup of
   the transid's entry, then one step per processor. The entry is settled
   also when a step raises. *)
let deliver t key new_state up =
  let known, slots =
    match Tbl.String.find_opt t.states key with
    | Some slots -> (true, slots)
    | None -> (false, Array.make (Node.cpu_count t.node) None)
  in
  let present = Some new_state in
  Fun.protect
    ~finally:(fun () -> settle t key ~known slots)
    (fun () ->
      List.iter
        (fun cpu ->
          if Cpu.is_up (Node.cpu t.node cpu) then
            apply t ~cpu slots key new_state present)
        up)

let broadcast t transid new_state =
  let up = Node.up_cpus t.node in
  let sent = List.length up in
  t.messages <- t.messages + sent;
  Metrics.add (Lazy.force t.broadcast_msgs) sent;
  let key = Transid.to_string transid in
  Engine.post_after (Node.engine t.node) Hw_config.bus_latency (fun () ->
      deliver t key new_state up);
  sent

let state_on t ~cpu transid =
  match Tbl.String.find_opt t.states (Transid.to_string transid) with
  | Some slots -> slots.(cpu)
  | None -> None

let broadcasts_sent t = t.messages

let transition_census t =
  Hashtbl.fold (fun arc n acc -> (arc, n) :: acc) t.census []
