open Tandem_sim

type Message.payload += Checkpoint

type t = {
  net : Net.t;
  node : Node.t;
  pair_name : string;
  service : t -> Process.t -> unit;
  mutable primary : Process.t option;
  mutable backup : Process.t option;
  mutable takeover_count : int;
  checkpoints : Metrics.counter Lazy.t;
}

let is_checkpoint (message : Message.t) =
  match message.Message.payload with Checkpoint -> true | _ -> false

let is_request message = not (is_checkpoint message)

let backup_loop process =
  let rec loop () =
    ignore (Process.receive ~filter:is_checkpoint process);
    Cpu.consume (Process.cpu process) Hw_config.cpu_message_cost;
    loop ()
  in
  loop ()

let spawn_backup t ~cpu =
  let process =
    Node.spawn t.node ~name:(t.pair_name ^ "-B") ~cpu backup_loop
  in
  t.backup <- Some process;
  Metrics.incr (Metrics.counter (Net.metrics t.net) "os.pair_backup_created")

let choose_backup_cpu t ~avoid =
  List.find_opt (fun cpu_id -> cpu_id <> avoid) (Node.up_cpus t.node)

let on_cpu process cpu = (Process.pid process).Ids.cpu = cpu

let handle_cpu_down t failed_cpu =
  let lost = function
    | Some process -> on_cpu process failed_cpu
    | None -> false
  in
  if lost t.primary then begin
    t.primary <- None;
    match t.backup with
    | Some backup_process when Process.is_alive backup_process ->
        (* Takeover: the backup becomes the primary. *)
        t.backup <- None;
        t.primary <- Some backup_process;
        t.takeover_count <- t.takeover_count + 1;
        Node.register_name t.node t.pair_name (Process.pid backup_process);
        Trace.emit (Net.trace t.net) "pair" "%s: takeover by cpu %d"
          t.pair_name (Process.pid backup_process).Ids.cpu;
        Metrics.incr (Metrics.counter (Net.metrics t.net) "os.pair_takeovers");
        Process.spawn_fiber backup_process (fun () ->
            t.service t backup_process);
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
  else if lost t.backup then begin
    t.backup <- None;
    match t.primary with
    | Some primary_process -> (
        match
          choose_backup_cpu t ~avoid:(Process.pid primary_process).Ids.cpu
        with
        | Some cpu -> spawn_backup t ~cpu
        | None -> ())
    | None -> ()
  end

let handle_cpu_up t restored_cpu =
  match (t.primary, t.backup) with
  | Some primary_process, None when not (on_cpu primary_process restored_cpu)
    ->
      spawn_backup t ~cpu:restored_cpu
  | Some primary_process, None ->
      (* Restored cpu hosts the primary?! cannot happen — primaries die with
         their cpu — but pick any other cpu defensively. *)
      (match choose_backup_cpu t ~avoid:(Process.pid primary_process).Ids.cpu with
      | Some cpu -> spawn_backup t ~cpu
      | None -> ())
  | _ -> ()

let create ~net ~node ~name ~primary_cpu ~backup_cpu ~service =
  if primary_cpu = backup_cpu then
    invalid_arg "Process_pair.create: primary and backup share a processor";
  let t =
    {
      net;
      node;
      pair_name = name;
      service;
      primary = None;
      backup = None;
      takeover_count = 0;
      checkpoints = lazy (Metrics.counter (Net.metrics net) "os.checkpoints");
    }
  in
  t.primary <-
    Some (Node.spawn node ~name ~cpu:primary_cpu (fun process -> service t process));
  spawn_backup t ~cpu:backup_cpu;
  Node.on_cpu_down node (handle_cpu_down t);
  Node.on_cpu_up node (handle_cpu_up t);
  t

let checkpoint t =
  Metrics.incr (Lazy.force t.checkpoints);
  match (t.primary, t.backup) with
  | Some primary_process, Some backup_process
    when Process.is_alive backup_process ->
      Net.send t.net
        (Message.oneway ~src:(Process.pid primary_process)
           ~dst:(Process.pid backup_process) Checkpoint);
      (* The primary waits for the checkpoint acknowledgement (one bus round
         trip) before acting on the checkpointed intention. *)
      Fiber.sleep (Net.engine t.net) (2 * Hw_config.bus_latency)
  | _ -> ()

let serve _t process handle =
  let rec loop () =
    let message = Process.receive ~filter:is_request process in
    Cpu.consume (Process.cpu process) Hw_config.cpu_message_cost;
    handle message;
    loop ()
  in
  loop ()

let name t = t.pair_name

let is_up t =
  match t.primary with
  | Some process -> Process.is_alive process
  | None -> false

let takeovers t = t.takeover_count
