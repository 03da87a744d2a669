open Tandem_sim
open Tandem_os
open Tandem_db

type t = {
  net : Net.t;
  tmf : Tmf.t;
  dict : Schema.t;
  file_client : File_client.t;
  discprocesses : (Ids.node_id * string, Discprocess.t) Hashtbl.t;
  system_volumes : (Ids.node_id * string, Tandem_disk.Volume.t) Hashtbl.t;
  server_classes : (string, Server.t) Hashtbl.t;
  mutable tcps : Tcp.t list;
}

let create ?seed ?config () =
  let net = Net.create ?seed ?config () in
  let tmf = Tmf.create net in
  let dict = Schema.create_dictionary () in
  {
    net;
    tmf;
    dict;
    file_client = File_client.create ~net ~tmf ~dictionary:dict;
    discprocesses = Hashtbl.create 16;
    system_volumes = Hashtbl.create 16;
    server_classes = Hashtbl.create 16;
    tcps = [];
  }

let net t = t.net

let engine t = Net.engine t.net

let tmf t = t.tmf

let metrics t = Net.metrics t.net

let spans t = Net.spans t.net

let dictionary t = t.dict

let files t = t.file_client

let make_volume t ~node ~name =
  let config = Net.config t.net in
  let volume =
    Tandem_disk.Volume.create
      ~cache_blocks:config.Hw_config.disc_cache_blocks (Net.engine t.net)
      ~metrics:(Net.metrics t.net)
      ~name:(Printf.sprintf "%d:%s" (Node.id node) name)
      ~access_time:config.Hw_config.disc_access
  in
  Hashtbl.replace t.system_volumes (Node.id node, name) volume;
  volume

let add_node t ~id ~cpus =
  let node = Net.add_node t.net ~id ~cpus in
  let monitor_volume = make_volume t ~node ~name:"$SYSTEM" in
  Tmf.install_node t.tmf node ~monitor_volume;
  let audit_volume = make_volume t ~node ~name:"$AUDITVOL" in
  Tmf.add_audit_trail t.tmf ~node:id ~name:"$AUDIT" ~volume:audit_volume ();
  node

let link t a b = Net.add_link t.net a b

let add_audit_trail t ~node ~name =
  let node_object = Net.node t.net node in
  let volume = make_volume t ~node:node_object ~name:(name ^ "VOL") in
  Tmf.add_audit_trail t.tmf ~node ~name ~volume ()

let add_volume t ~node ~name ?(primary_cpu = 0) ?(backup_cpu = 1)
    ?(cache_capacity = 256) ?(trail = "$AUDIT") () =
  let node_object = Net.node t.net node in
  let volume = make_volume t ~node:node_object ~name in
  let discprocess =
    Discprocess.spawn ~net:t.net ~tmf:t.tmf ~node:node_object ~volume ~name
      ~trail ~primary_cpu ~backup_cpu ~cache_capacity ()
  in
  Hashtbl.replace t.discprocesses (node, name) discprocess;
  Tmf.Rollforward.register_target
    (Tmf.rollforward t.tmf node)
    (Discprocess.rollforward_target discprocess);
  discprocess

let discprocess t ~node ~volume =
  match Hashtbl.find_opt t.discprocesses (node, volume) with
  | Some dp -> dp
  | None ->
      invalid_arg (Printf.sprintf "Cluster.discprocess: %d:%s" node volume)

let volume t ~node ~volume =
  match Hashtbl.find_opt t.system_volumes (node, volume) with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Cluster.volume: %d:%s" node volume)

let add_file t def =
  Schema.add t.dict def;
  List.iter
    (fun partition ->
      let dp =
        discprocess t ~node:partition.Schema.node
          ~volume:partition.Schema.volume
      in
      ignore (Discprocess.add_file dp def))
    def.Schema.partitions

let load_file t ~file records =
  match Schema.find t.dict file with
  | None -> invalid_arg ("Cluster.load_file: undefined file " ^ file)
  | Some def ->
      File.load
        (List.map
           (fun partition ->
             let dp =
               discprocess t ~node:partition.Schema.node
                 ~volume:partition.Schema.volume
             in
             match Discprocess.file dp file with
             | Some f -> (partition.Schema.low_key, f)
             | None -> invalid_arg "Cluster.load_file: partition missing")
           def.Schema.partitions)
        records

let add_server_class t ~node ~name ~count handler =
  if Hashtbl.mem t.server_classes name then
    invalid_arg ("Cluster.add_server_class: duplicate " ^ name);
  let server_class =
    Server.create_class ~net:t.net ~files:t.file_client
      ~node:(Net.node t.net node) ~name ~handler ~initial:count ()
  in
  Hashtbl.replace t.server_classes name server_class;
  server_class

let server_class t name = Hashtbl.find_opt t.server_classes name

let lookup_class t name =
  match Hashtbl.find_opt t.server_classes name with
  | Some cls -> Some (Server.node_id cls, Server.member_count cls)
  | None -> None

let add_tcp t ~node ~name ?(primary_cpu = 0) ?(backup_cpu = 1) ~terminals
    ~program () =
  let tcp =
    Tcp.spawn ~net:t.net ~tmf:t.tmf ~node:(Net.node t.net node) ~name
      ~lookup_class:(lookup_class t) ~primary_cpu ~backup_cpu ~terminals
      ~program
  in
  t.tcps <- tcp :: t.tcps;
  tcp

let node_ids t = List.map Node.id (Net.nodes t.net)

let volumes t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.system_volumes []
  |> List.sort (fun a b ->
         String.compare (Tandem_disk.Volume.name a) (Tandem_disk.Volume.name b))

let data_volumes t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.discprocesses []
  |> List.sort compare

let all_discprocesses t =
  Hashtbl.fold (fun key dp acc -> (key, dp) :: acc) t.discprocesses []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let run_client t ~node ~cpu body =
  ignore (Node.spawn (Net.node t.net node) ~cpu (fun process -> body process))

let run ?until t = Engine.run ?until (Net.engine t.net)

let run_for t span = Engine.run_for (Net.engine t.net) span

let fail_cpu t ~node cpu = Node.fail_cpu (Net.node t.net node) cpu

let restore_cpu t ~node cpu = Node.restore_cpu (Net.node t.net node) cpu

let take_archive t ~node = Tmf.Rollforward.take_archive (Tmf.rollforward t.tmf node)

let total_node_failure t ~node =
  (* Volatile state of every data volume on the node. *)
  Hashtbl.iter
    (fun (node_id, _) dp ->
      if node_id = node then Discprocess.simulate_total_failure dp)
    t.discprocesses;
  (* Unforced audit is lost; forced records survive on the mirrored audit
     volume. *)
  let state = Tmf.node_state t.tmf node in
  Hashtbl.iter
    (fun _ trail -> Tandem_audit.Audit_trail.crash trail)
    state.Tmf.Tmf_state.trails;
  (* Dispositions recorded without a force (presumed aborts, fast-path
     commits whose marker carries the decision) die with the node's memory;
     forced monitor records survive. *)
  ignore (Tandem_audit.Monitor_trail.crash state.Tmf.Tmf_state.monitor);
  Tbl.String.reset state.Tmf.Tmf_state.registry;
  Tmf.Tx_table.reset state.Tmf.Tmf_state.tx_tables;
  state.Tmf.Tmf_state.generation <- state.Tmf.Tmf_state.generation + 1;
  Metrics.incr (Metrics.counter (Net.metrics t.net) "hw.total_node_failures")

let rollforward_node t ~node archive =
  let result = ref None in
  run_client t ~node ~cpu:0 (fun process ->
      result :=
        Some (Tmf.Rollforward.recover (Tmf.rollforward t.tmf node) ~self:process archive));
  (* Pump the engine in bounded slices: other machinery (safe-delivery
     retries against a partitioned node, time-limit timers) may keep the
     event queue non-empty forever. *)
  let rec pump remaining =
    if !result = None && remaining > 0 then begin
      run_for t (Sim_time.seconds 1);
      pump (remaining - 1)
    end
  in
  pump 600;
  match !result with
  | Some stats -> stats
  | None -> failwith "Cluster.rollforward_node: recovery did not complete"
