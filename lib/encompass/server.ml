open Tandem_os

type ctx = {
  server_process : Process.t;
  files : File_client.t;
  transid : Tmf.Transid.t option;
}

type server_error = Transient of string | Rejected of string

type handler = ctx -> string -> (string, server_error) result

type Message.payload +=
  | Server_request of { transid : Tmf.Transid.t option; body : string }
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
        let ctx = { server_process = process; files = t.files; transid } in
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

let node_id t = Node.id t.node

let member_count t = Array.length t.members

let queued_requests t =
  Array.fold_left
    (fun acc process ->
      if Process.is_alive process then
        acc + Mailbox.pending (Process.mailbox process)
      else acc)
    0 t.members

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
        let payload = Server_request { transid; body } in
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
