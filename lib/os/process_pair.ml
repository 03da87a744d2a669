open Tandem_sim

type Message.payload += Checkpoint_apply of (unit -> unit)

type ('state, 'ckpt) t = {
  net : Net.t;
  node : Node.t;
  pair_name : string;
  init : unit -> 'state;
  apply : 'state -> 'ckpt -> unit;
  snapshot : 'state -> 'ckpt list;
  service : ('state, 'ckpt) t -> 'state -> Process.t -> unit;
  on_takeover : 'state -> unit;
  mutable primary : (Process.t * 'state) option;
  mutable backup : (Process.t * 'state) option;
  mutable takeover_count : int;
  checkpoints : Metrics.counter Lazy.t;
}

let is_checkpoint (message : Message.t) =
  match message.Message.payload with
  | Checkpoint_apply _ -> true
  | _ -> false

let backup_loop t process state =
  let config = Node.config t.node in
  let rec loop () =
    let message = Process.receive ~filter:is_checkpoint process in
    (match message.Message.payload with
    | Checkpoint_apply apply_it ->
        Cpu.consume (Process.cpu process) config.Hw_config.cpu_message_cost;
        apply_it ()
    | _ -> assert false);
    loop ()
  in
  (* Reference [state] so replica ownership is explicit at the spawn site. *)
  ignore (Sys.opaque_identity state);
  loop ()

let spawn_backup t ~cpu =
  let state = t.init () in
  (* Rebirth: bring the new replica up to date by replaying a snapshot of the
     current primary state. The bulk transfer happens over the bus but is
     not individually metered — only its count is. *)
  (match t.primary with
  | Some (_, primary_state) ->
      List.iter (fun ckpt -> t.apply state ckpt) (t.snapshot primary_state)
  | None -> ());
  let process =
    Node.spawn t.node ~name:(t.pair_name ^ "-B") ~cpu (fun process ->
        backup_loop t process state)
  in
  t.backup <- Some (process, state);
  Metrics.incr (Metrics.counter (Net.metrics t.net) "os.pair_backup_created")

let choose_backup_cpu t ~avoid =
  List.find_opt (fun cpu_id -> cpu_id <> avoid) (Node.up_cpus t.node)

let handle_cpu_down t failed_cpu =
  let primary_lost =
    match t.primary with
    | Some (process, _) -> (Process.pid process).Ids.cpu = failed_cpu
    | None -> false
  in
  let backup_lost =
    match t.backup with
    | Some (process, _) -> (Process.pid process).Ids.cpu = failed_cpu
    | None -> false
  in
  if primary_lost then begin
    t.primary <- None;
    match t.backup with
    | Some (backup_process, backup_state)
      when Process.is_alive backup_process ->
        (* Takeover: the backup becomes the primary. *)
        t.backup <- None;
        t.primary <- Some (backup_process, backup_state);
        t.takeover_count <- t.takeover_count + 1;
        Node.register_name t.node t.pair_name (Process.pid backup_process);
        Trace.emit (Net.trace t.net) "pair" "%s: takeover by cpu %d"
          t.pair_name (Process.pid backup_process).Ids.cpu;
        Metrics.incr (Metrics.counter (Net.metrics t.net) "os.pair_takeovers");
        t.on_takeover backup_state;
        Process.spawn_fiber backup_process (fun () ->
            t.service t backup_state backup_process);
        (match
           choose_backup_cpu t ~avoid:(Process.pid backup_process).Ids.cpu
         with
        | Some cpu -> spawn_backup t ~cpu
        | None -> ())
    | Some _ | None ->
        (* Both members gone: the service is down (the multiple-module
           failure that only ROLLFORWARD can repair). *)
        t.backup <- None;
        Node.unregister_name t.node t.pair_name;
        Trace.emit (Net.trace t.net) "pair" "%s: DOUBLE FAILURE, service down"
          t.pair_name;
        Metrics.incr
          (Metrics.counter (Net.metrics t.net) "os.pair_double_failures")
  end
  else if backup_lost then begin
    t.backup <- None;
    match t.primary with
    | Some (primary_process, _) -> (
        match
          choose_backup_cpu t ~avoid:(Process.pid primary_process).Ids.cpu
        with
        | Some cpu -> spawn_backup t ~cpu
        | None -> ())
    | None -> ()
  end

let handle_cpu_up t restored_cpu =
  match (t.primary, t.backup) with
  | Some (primary_process, _), None
    when (Process.pid primary_process).Ids.cpu <> restored_cpu ->
      spawn_backup t ~cpu:restored_cpu
  | Some (primary_process, _), None ->
      (* Restored cpu hosts the primary?! cannot happen — primaries die with
         their cpu — but pick any other cpu defensively. *)
      (match choose_backup_cpu t ~avoid:(Process.pid primary_process).Ids.cpu with
      | Some cpu -> spawn_backup t ~cpu
      | None -> ())
  | _ -> ()

let create ~net ~node ~name ~primary_cpu ~backup_cpu ~init ~apply ~snapshot
    ~service ?(on_takeover = fun _ -> ()) () =
  if primary_cpu = backup_cpu then
    invalid_arg "Process_pair.create: primary and backup share a processor";
  let t =
    {
      net;
      node;
      pair_name = name;
      init;
      apply;
      snapshot;
      service;
      on_takeover;
      primary = None;
      backup = None;
      takeover_count = 0;
      checkpoints = lazy (Metrics.counter (Net.metrics net) "os.checkpoints");
    }
  in
  let primary_state = init () in
  let primary_process =
    Node.spawn node ~name ~cpu:primary_cpu (fun process ->
        service t primary_state process)
  in
  t.primary <- Some (primary_process, primary_state);
  spawn_backup t ~cpu:backup_cpu;
  Node.on_cpu_down node (handle_cpu_down t);
  Node.on_cpu_up node (handle_cpu_up t);
  t

let checkpoint t ckpt =
  let config = Node.config t.node in
  Metrics.incr (Lazy.force t.checkpoints);
  match (t.primary, t.backup) with
  | Some (primary_process, _), Some (backup_process, backup_state)
    when Process.is_alive backup_process ->
      let payload = Checkpoint_apply (fun () -> t.apply backup_state ckpt) in
      Net.send t.net
        (Message.oneway ~src:(Process.pid primary_process)
           ~dst:(Process.pid backup_process) payload);
      (* The primary waits for the checkpoint acknowledgement (one bus round
         trip) before acting on the checkpointed intention. *)
      Fiber.sleep (Net.engine t.net) (2 * config.Hw_config.bus_latency)
  | _ -> ()

let receive _t process =
  Process.receive ~filter:(fun message -> not (is_checkpoint message)) process

let name t = t.pair_name

let primary_pid t = Option.map (fun (p, _) -> Process.pid p) t.primary

let backup_pid t = Option.map (fun (p, _) -> Process.pid p) t.backup

let is_up t =
  match t.primary with
  | Some (process, _) -> Process.is_alive process
  | None -> false

let takeovers t = t.takeover_count

let primary_state t = Option.map snd t.primary
