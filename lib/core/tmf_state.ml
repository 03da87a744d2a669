module Tbl = Tandem_sim.Tbl
module Transid = Tandem_sim.Transid

type tx_info = {
  transid : Transid.t;
  mutable local_volumes : string list;
  mutable children : Tandem_os.Ids.node_id list;
  mutable voted_yes : bool;
  mutable voted_at : Tandem_sim.Sim_time.t option;
  mutable decision_cast : bool;
  mutable locally_aborted : bool;
  mutable resolved : Tandem_audit.Monitor_trail.disposition option;
  mutable auto_abort : Tandem_sim.Engine.handle option;
  resolution_lock : Tandem_sim.Fiber_mutex.t;
}

type node_state = {
  node : Tandem_os.Node.t;
  tx_tables : Tx_table.t;
  monitor : Tandem_audit.Monitor_trail.t;
  trails : (string, Tandem_audit.Audit_trail.t) Hashtbl.t;
  audit_processes : (string, Tandem_audit.Audit_process.t) Hashtbl.t;
  participants : Participant.t Tbl.String.t;
  registry : tx_info Tbl.String.t;
  mutable generation : int;
  seq_counters : int array;
  tmp_name : string;
  backout_name : string;
}

let make_node_state ?(force_window = 0) ~node ~monitor_volume () =
  {
    node;
    tx_tables = Tx_table.create node;
    monitor = Tandem_audit.Monitor_trail.create ~force_window monitor_volume;
    trails = Hashtbl.create 4;
    audit_processes = Hashtbl.create 4;
    participants = Tbl.String.create 8;
    registry = Tbl.String.create 64;
    generation = 0;
    seq_counters = Array.make (Tandem_os.Node.cpu_count node) 0;
    tmp_name = "$TMP";
    backout_name = "$BACKOUT";
  }

let find_tx state transid =
  Tbl.String.find_opt state.registry (Transid.to_string transid)

let ensure_tx state transid =
  let key = Transid.to_string transid in
  match Tbl.String.find_opt state.registry key with
  | Some info -> info
  | None ->
      let info =
        {
          transid;
          local_volumes = [];
          children = [];
          voted_yes = false;
          voted_at = None;
          decision_cast = false;
          locally_aborted = false;
          resolved = None;
          auto_abort = None;
          resolution_lock = Tandem_sim.Fiber_mutex.create ();
        }
      in
      Tbl.String.replace state.registry key info;
      info

let forget_tx state transid =
  Tbl.String.remove state.registry (Transid.to_string transid);
  Hashtbl.iter
    (fun _ trail -> Tandem_audit.Audit_trail.settle trail ~transid)
    state.trails

(* Participant/child registration never creates the entry: a live
   transaction is already registered (at BEGIN on its home node, by
   remote-begin elsewhere), so an absent transid means the transaction was
   resolved while this work was in flight — re-creating it would leave an
   orphan that no phase two will ever clean up. *)
let add_local_volume state transid volume =
  match find_tx state transid with
  | None -> ()
  | Some info ->
      if not (List.mem volume info.local_volumes) then
        info.local_volumes <- volume :: info.local_volumes

let add_child state transid node =
  match find_tx state transid with
  | None -> ()
  | Some info ->
      if not (List.mem node info.children) then
        info.children <- node :: info.children

let participants_of state transid =
  match find_tx state transid with
  | None -> []
  | Some info ->
      List.filter_map
        (fun volume -> Tbl.String.find_opt state.participants volume)
        info.local_volumes

let trails_of state transid =
  participants_of state transid
  |> List.map (fun p -> p.Participant.trail)
  |> List.sort_uniq String.compare

let commit_marker_survives state transid =
  Hashtbl.fold
    (fun _ trail found ->
      found
      || List.exists
           (fun record ->
             Tandem_audit.Audit_record.is_commit_marker
               record.Tandem_audit.Audit_record.image)
           (Tandem_audit.Audit_trail.records_for trail ~transid))
    state.trails false
