open Tandem_sim
open Tandem_os

type t = {
  node : Node.t;
  tables : (string, Tx_state.t) Hashtbl.t array; (* per cpu *)
  mutable messages : int;
  census : (Tx_state.t option * Tx_state.t, int) Hashtbl.t;
  broadcast_msgs : Metrics.counter Lazy.t;
}

let create node =
  let t =
    {
      node;
      tables = Array.init (Node.cpu_count node) (fun _ -> Hashtbl.create 64);
      messages = 0;
      census = Hashtbl.create 16;
      broadcast_msgs =
        lazy (Metrics.counter (Node.metrics node) "tmf.state_broadcast_msgs");
    }
  in
  (* A reloaded processor comes back with fresh memory: its copy of the
     table is empty until new broadcasts arrive (stale states would make
     later broadcasts look like illegal transitions). *)
  Node.on_cpu_up node (fun cpu -> Hashtbl.reset t.tables.(cpu));
  t

let reset t =
  Array.iter Hashtbl.reset t.tables

let apply t ~cpu transid new_state =
  let table = t.tables.(cpu) in
  let key = Transid.to_string transid in
  let current = Hashtbl.find_opt table key in
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
  if Tx_state.is_terminal new_state then Hashtbl.remove table key
  else Hashtbl.replace table key new_state

let broadcast t transid new_state =
  let engine = Node.engine t.node in
  let config = Node.config t.node in
  let up = Node.up_cpus t.node in
  t.messages <- t.messages + List.length up;
  Metrics.add (Lazy.force t.broadcast_msgs) (List.length up);
  List.iter
    (fun cpu ->
      Engine.post_after engine config.Hw_config.bus_latency (fun () ->
          if Cpu.is_up (Node.cpu t.node cpu) then
            apply t ~cpu transid new_state))
    up

let state_on t ~cpu transid =
  Hashtbl.find_opt t.tables.(cpu) (Transid.to_string transid)

let live_transactions t ~cpu =
  Hashtbl.fold
    (fun key _ acc ->
      match Transid.of_string key with Some id -> id :: acc | None -> acc)
    t.tables.(cpu) []
  |> List.sort Transid.compare

let broadcasts_sent t = t.messages

let transition_census t =
  Hashtbl.fold (fun arc n acc -> (arc, n) :: acc) t.census []
