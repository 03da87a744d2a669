open Tandem_os

type ctx = {
  server_process : Process.t;
  files : File_client.t;
  transid : Tmf.Transid.t option;
}

type server_error = Transient of string | Rejected of string

type handler = ctx -> string -> (string, server_error) result

type Message.payload +=
  | Server_request of { transid : string option; body : string }
  | Server_reply of (string, server_error) result

let map_file_error error =
  let text = Format.asprintf "%a" File_client.pp_error error in
  if File_client.is_transient error then Transient text else Rejected text

type t = {
  net : Net.t;
  files : File_client.t;
  node : Node.t;
  name : string;
  handler : handler;
  mutable members : Process.t array;  (* slot-indexed: names are stable *)
}

let member_name t index = Printf.sprintf "%s-%d" t.name index

let server_body t process =
  let rec loop () =
    let message = Process.receive process in
    (match message.Message.payload with
    | Server_request { transid; body } ->
        Cpu.consume (Process.cpu process) Hw_config.cpu_server_cost;
        let ctx =
          {
            server_process = process;
            files = t.files;
            transid = Option.bind transid Tmf.Transid.of_string;
          }
        in
        let result = t.handler ctx body in
        Rpc.reply t.net ~self:process ~to_:message (Server_reply result)
    | _ -> ());
    loop ()
  in
  loop ()

(* Spawn (or respawn) the member for a slot; the name is the slot's, so a
   replacement is reached by the same requester addressing. *)
let spawn_slot t slot =
  let up = Node.up_cpus t.node in
  match up with
  | [] -> None
  | _ ->
      let cpu = List.nth up (slot mod List.length up) in
      Some
        (Node.spawn t.node ~name:(member_name t slot) ~cpu (fun process ->
             server_body t process))

let create_class ~net ~files ~node ~name ~handler ~initial () =
  let t =
    { net; files; node; name; handler; members = [||] }
  in
  t.members <-
    Array.init initial (fun slot ->
        match spawn_slot t slot with
        | Some process -> process
        | None -> invalid_arg "Server.create_class: no up processor");
  (* Application control: a member lost to a processor failure is replaced
     on a surviving processor, keeping the class at strength. *)
  Node.on_cpu_down node (fun _failed ->
      Array.iteri
        (fun slot process ->
          if not (Process.is_alive process) then
            match spawn_slot t slot with
            | Some replacement -> t.members.(slot) <- replacement
            | None -> ())
        t.members);
  t

let class_name t = t.name

let node_id t = Node.id t.node

let member_count t = Array.length t.members

let set_members t target =
  if target < 0 then invalid_arg "Server.set_members: negative size";
  let current = Array.length t.members in
  if target < current then begin
    for slot = target to current - 1 do
      Process.kill t.members.(slot);
      Node.unregister_name t.node (member_name t slot)
    done;
    t.members <- Array.sub t.members 0 target
  end
  else if target > current then begin
    let extra =
      Array.init (target - current) (fun i ->
          match spawn_slot t (current + i) with
          | Some process -> process
          | None -> invalid_arg "Server.set_members: no up processor")
    in
    t.members <- Array.append t.members extra
  end

let queued_requests t =
  Array.fold_left
    (fun acc process ->
      if Process.is_alive process then
        acc + Mailbox.pending (Process.mailbox process)
      else acc)
    0 t.members

let enable_autoscale t ~min_members ~max_members
    ?(interval = Tandem_sim.Sim_time.seconds 1) () =
  if min_members < 1 || max_members < min_members then
    invalid_arg "Server.enable_autoscale: bad bounds";
  if Array.length t.members < min_members then set_members t min_members;
  let monitor_cpu =
    match Node.up_cpus t.node with cpu :: _ -> cpu | [] -> 0
  in
  ignore
    (Node.spawn t.node ~name:(t.name ^ "-MON") ~cpu:monitor_cpu
       (fun _process ->
         let rec watch () =
           Tandem_sim.Fiber.sleep (Net.engine t.net) interval;
           let members = Array.length t.members in
           let backlog = queued_requests t in
           (* More than two queued requests per member: grow. Completely
              idle: shrink one at a time. *)
           if backlog > 2 * members && members < max_members then begin
             set_members t (min max_members (members + 1));
             Tandem_sim.Metrics.incr
               (Tandem_sim.Metrics.counter (Net.metrics t.net)
                  "encompass.servers_created")
           end
           else if backlog = 0 && members > min_members then begin
             set_members t (members - 1);
             Tandem_sim.Metrics.incr
               (Tandem_sim.Metrics.counter (Net.metrics t.net)
                  "encompass.servers_deleted")
           end;
           watch ()
         in
         watch ()))

(* ------------------------------------------------------------------ *)

let send net ~self ~tmf ?transid ~node ~class_name ~members body =
  if members < 1 then Error (Rejected "empty server class")
  else begin
    let from_node = (Process.pid self).Ids.node in
    let propagate =
      match transid with
      | None -> Ok ()
      | Some transid -> (
          match Tmf.ensure_known tmf ~self ~from_node ~to_node:node transid with
          | Ok () -> Ok ()
          | Error `Unreachable -> Error (Transient "server node unreachable"))
    in
    match propagate with
    | Error _ as e -> e
    | Ok () -> (
        let member = Net.fresh_corr net mod members in
        let payload =
          Server_request
            { transid = Option.map Tmf.Transid.to_string transid; body }
        in
        match
          (* No transparent retry: a server request is not idempotent, so a
             lost reply must surface as a transient failure and be cured by
             RESTART-TRANSACTION, never by silent re-execution. *)
          Rpc.call_name net ~self ~node
            ~name:(Printf.sprintf "%s-%d" class_name member)
            ~timeout:(Tandem_sim.Sim_time.seconds 30) ~retries:0 payload
        with
        | Ok (Server_reply result) -> result
        | Ok _ -> Error (Rejected "protocol violation")
        | Error e -> Error (Transient (Format.asprintf "%a" Rpc.pp_error e)))
  end
