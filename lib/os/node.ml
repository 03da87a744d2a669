open Tandem_sim

type t = {
  id : Ids.node_id;
  engine : Engine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  cpus : Cpu.t array;
  mutable bus_x_up : bool;
  mutable bus_y_up : bool;
  (* Every process ever spawned, by serial: [by_serial] answers the
     per-message [find_process]; [processes] is kept for [fail_cpu] alone,
     whose kill order is its fold order. *)
  mutable by_serial : Process.t option array;
  processes : Process.t Tbl.Int.t;
  mutable up : Ids.cpu_id list; (* ascending; kept by fail/restore_cpu *)
  names : Ids.pid Tbl.String.t;
  mutable next_serial : int;
  mutable cpu_down_hooks : (Ids.cpu_id -> unit) list;
  mutable cpu_up_hooks : (Ids.cpu_id -> unit) list;
  (* Pre-resolved handles for the local-delivery fast path. *)
  c_msgs_local : Metrics.counter;
  c_dropped_bus : Metrics.counter;
  c_dropped_dead : Metrics.counter;
}

let create ~engine ~trace ~metrics ~id ~cpus =
  if cpus < 2 || cpus > Ids.max_cpus_per_node then
    invalid_arg "Node.create: a node has 2 to 16 processors";
  {
    id;
    engine;
    trace;
    metrics;
    cpus = Array.init cpus (fun _ -> Cpu.create engine ~node:id);
    bus_x_up = true;
    bus_y_up = true;
    by_serial = Array.make 64 None;
    processes = Tbl.Int.create 64;
    up = List.init cpus Fun.id;
    names = Tbl.String.create 32;
    next_serial = 0;
    cpu_down_hooks = [];
    cpu_up_hooks = [];
    c_msgs_local = Metrics.counter metrics "os.msgs_local";
    c_dropped_bus = Metrics.counter metrics "os.msgs_dropped_bus";
    c_dropped_dead = Metrics.counter metrics "os.msgs_dropped_dead";
  }

let id t = t.id

let engine t = t.engine

let metrics t = t.metrics

let cpu_count t = Array.length t.cpus

let cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Node.cpu: no such cpu";
  t.cpus.(i)

let up_cpus t = t.up

let spawn t ?name ~cpu:cpu_id body =
  let cpu = cpu t cpu_id in
  if not (Cpu.is_up cpu) then invalid_arg "Node.spawn: processor is down";
  t.next_serial <- t.next_serial + 1;
  let pid = { Ids.node = t.id; cpu = cpu_id; serial = t.next_serial } in
  let process_name =
    match name with Some n -> n | None -> Printf.sprintf "p%d" t.next_serial
  in
  let process = Process.create t.engine ~pid ~name:process_name ~cpu in
  let serial = t.next_serial in
  t.by_serial <- Tbl.grow t.by_serial serial;
  t.by_serial.(serial) <- Some process;
  Tbl.Int.replace t.processes serial process;
  (match name with Some n -> Tbl.String.replace t.names n pid | None -> ());
  Process.start process body;
  process

let find_process t (pid : Ids.pid) =
  let serial = pid.Ids.serial in
  if pid.Ids.node <> t.id || serial < 0 || serial >= Array.length t.by_serial
  then None
  else
    match t.by_serial.(serial) with
    | Some process when Ids.equal_pid (Process.pid process) pid -> Some process
    | Some _ | None -> None

let register_name t name pid = Tbl.String.replace t.names name pid

let unregister_name t name = Tbl.String.remove t.names name

let lookup_name t name = Tbl.String.find_opt t.names name

let buses_up t = (if t.bus_x_up then 1 else 0) + if t.bus_y_up then 1 else 0

let deliver_local t (message : Message.t) =
  let src = message.Message.src and dst = message.Message.dst in
  let latency =
    if src.Ids.node = t.id && src.Ids.cpu = dst.Ids.cpu then
      Hw_config.same_cpu_latency
    else Hw_config.bus_latency
  in
  let crosses_bus = src.Ids.node <> t.id || src.Ids.cpu <> dst.Ids.cpu in
  if crosses_bus && buses_up t = 0 then begin
    Metrics.incr t.c_dropped_bus;
    Trace.emit t.trace "bus" "dropped %a: both buses down" Message.pp message
  end
  else begin
    Metrics.incr t.c_msgs_local;
    Engine.post_after t.engine latency (fun () ->
        match find_process t dst with
           | Some process when Process.is_alive process ->
               Process.deliver process message
           | Some _ | None ->
               Metrics.incr t.c_dropped_dead)
  end

let fail_cpu t cpu_id =
  let cpu = cpu t cpu_id in
  if Cpu.is_up cpu then begin
    Cpu.mark_down cpu;
    t.up <- List.filter (fun id -> id <> cpu_id) t.up;
    Trace.emit t.trace "hw" "node %d: cpu %d FAILED" t.id cpu_id;
    Metrics.incr (Metrics.counter t.metrics "hw.cpu_failures");
    Tbl.Int.iter
      (fun _ process ->
        if (Process.pid process).Ids.cpu = cpu_id then Process.kill process)
      t.processes;
    let hooks = t.cpu_down_hooks in
    Engine.post_after t.engine Hw_config.failure_detection (fun () ->
        (* The hooks run even if the processor was reloaded inside the
           detection window: its processes were killed at the instant of
           failure, so the I'm-alive protocol still finds the missed
           heartbeats — a reload is not a transient stall. *)
        List.iter (fun hook -> hook cpu_id) (List.rev hooks))
  end

let restore_cpu t cpu_id =
  let cpu = cpu t cpu_id in
  if not (Cpu.is_up cpu) then begin
    Cpu.mark_up cpu;
    t.up <- List.merge Int.compare [ cpu_id ] t.up;
    Trace.emit t.trace "hw" "node %d: cpu %d reloaded" t.id cpu_id;
    List.iter (fun hook -> hook cpu_id) (List.rev t.cpu_up_hooks)
  end

let fail_bus t which =
  (match which with
  | `X -> t.bus_x_up <- false
  | `Y -> t.bus_y_up <- false);
  Trace.emit t.trace "hw" "node %d: bus failed (%d left)" t.id (buses_up t)

let restore_bus t which =
  match which with `X -> t.bus_x_up <- true | `Y -> t.bus_y_up <- true

let on_cpu_down t hook = t.cpu_down_hooks <- hook :: t.cpu_down_hooks

let on_cpu_up t hook = t.cpu_up_hooks <- hook :: t.cpu_up_hooks
