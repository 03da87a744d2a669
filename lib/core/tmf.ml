open Tandem_os
open Tandem_audit

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

type t = {
  net : Net.t;
  node_states : (Ids.node_id, Tmf_state.node_state) Hashtbl.t;
  tmps : (Ids.node_id, Tmp.t) Hashtbl.t;
  rollforwards : (Ids.node_id, Rollforward.t) Hashtbl.t;
  acceptors : (Ids.node_id, Acceptor.t) Hashtbl.t;
  restart_limit : int;
  begins : Tandem_sim.Metrics.counter Lazy.t;
  begins_by_node : Tandem_sim.Metrics.counter_family;
}

let create ?(restart_limit = 3) net =
  {
    net;
    node_states = Hashtbl.create 8;
    tmps = Hashtbl.create 8;
    rollforwards = Hashtbl.create 8;
    acceptors = Hashtbl.create 8;
    restart_limit;
    begins = lazy (Tandem_sim.Metrics.counter (Net.metrics net) "tmf.begins");
    begins_by_node =
      Tandem_sim.Metrics.counter_family (Net.metrics net)
        ~name:"tmf.begins_by_node" ~label:"node";
  }

let net t = t.net

let restart_limit t = t.restart_limit

let node_state t node =
  match Hashtbl.find_opt t.node_states node with
  | Some state -> state
  | None -> invalid_arg (Printf.sprintf "Tmf: node %d not installed" node)

let tmp t node =
  match Hashtbl.find_opt t.tmps node with
  | Some tmp -> tmp
  | None -> invalid_arg (Printf.sprintf "Tmf: node %d not installed" node)

let rollforward t node =
  match Hashtbl.find_opt t.rollforwards node with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Tmf: node %d not installed" node)

let acceptor t node =
  match Hashtbl.find_opt t.acceptors node with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Tmf: node %d not installed" node)

let install_node t node ~monitor_volume ?tmp_config () =
  let id = Node.id node in
  if Hashtbl.mem t.node_states id then
    invalid_arg "Tmf.install_node: already installed";
  let force_window = (Net.config t.net).Hw_config.group_commit_window in
  let state = Tmf_state.make_node_state ~force_window ~node ~monitor_volume () in
  Hashtbl.replace t.node_states id state;
  let tmp = Tmp.spawn ~net:t.net ~state ?config:tmp_config ~primary_cpu:0 ~backup_cpu:1 () in
  Hashtbl.replace t.tmps id tmp;
  Backout.spawn ~net:t.net ~state ~primary_cpu:1 ~backup_cpu:0;
  (* Every node carries an acceptor on its system volume; under the 2PC
     knob it simply never receives a message. Which nodes form the quorum
     set for a given transaction is decided by the proposers
     ({!Paxos_commit.acceptor_nodes}), not here. *)
  Hashtbl.replace t.acceptors id
    (Acceptor.spawn ~net:t.net ~state ~volume:monitor_volume ~primary_cpu:0
       ~backup_cpu:1 ());
  Hashtbl.replace t.rollforwards id (Rollforward.create ~net:t.net ~state)

let add_audit_trail t ~node ~name ~volume ?records_per_file () =
  let state = node_state t node in
  if Hashtbl.mem state.Tmf_state.trails name then
    invalid_arg ("Tmf.add_audit_trail: duplicate trail " ^ name);
  let force_window = (Net.config t.net).Hw_config.group_commit_window in
  let trail =
    Audit_trail.create volume ~name ?records_per_file ~force_window ()
  in
  Hashtbl.replace state.Tmf_state.trails name trail;
  let audit_process =
    Audit_process.spawn ~net:t.net ~node:state.Tmf_state.node ~trail ~name
      ~primary_cpu:0 ~backup_cpu:1
  in
  Hashtbl.replace state.Tmf_state.audit_processes name audit_process

let register_participant t participant =
  let state = node_state t participant.Participant.node in
  if not (Hashtbl.mem state.Tmf_state.trails participant.Participant.trail)
  then
    invalid_arg
      ("Tmf.register_participant: unknown trail " ^ participant.Participant.trail);
  Hashtbl.replace state.Tmf_state.participants participant.Participant.volume
    participant

let begin_transaction t ~node ~cpu =
  let state = node_state t node in
  let seq = state.Tmf_state.seq_counters.(cpu) + 1 in
  state.Tmf_state.seq_counters.(cpu) <- seq;
  let transid = Transid.make ~home:node ~cpu ~seq in
  ignore (Tmf_state.ensure_tx state transid);
  Tmp.arm_transaction_timer (tmp t node) transid;
  ignore (Tandem_sim.Span.start (Net.spans t.net) (Transid.to_string transid));
  Tx_table.broadcast state.Tmf_state.tx_tables transid Tx_state.Active;
  Tandem_sim.Metrics.incr (Lazy.force t.begins);
  Tandem_sim.Metrics.incr
    (Tandem_sim.Metrics.family_counter t.begins_by_node (string_of_int node));
  transid

let end_transaction t ~self transid =
  Tmp.end_transaction t.net ~self ~home:(Transid.home transid) transid

let abort_transaction t ~self ~reason transid =
  Tmp.abort_transaction t.net ~self ~node:(Transid.home transid) ~reason transid

let ensure_known t ~self ~from_node ~to_node transid =
  if from_node = to_node then Ok ()
  else begin
    match Tmp.remote_begin t.net ~self ~to_node transid with
    | Ok `Registered ->
        (* First transmission from anywhere: this node becomes the parent in
           the spanning tree along which commit messages will travel. *)
        Tmf_state.add_child (node_state t from_node) transid to_node;
        Tandem_sim.Span.incr_remote_nodes (Net.spans t.net)
          (Transid.to_string transid);
        Ok ()
    | Ok `Known -> Ok ()
    | Error `Unreachable -> Error `Unreachable
  end

let note_local_participant t ~node ~volume transid =
  Tmf_state.add_local_volume (node_state t node) transid volume

let state_of t ~node ~cpu transid =
  Tx_table.state_on (node_state t node).Tmf_state.tx_tables ~cpu transid

let disposition t ~node transid =
  Monitor_trail.disposition_of (node_state t node).Tmf_state.monitor
    ~transid:(Transid.to_string transid)

let transaction_is_live t ~node transid =
  Tmf_state.find_tx (node_state t node) transid <> None
