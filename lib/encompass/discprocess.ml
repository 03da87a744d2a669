open Tandem_os
open Tandem_db
open Dp_protocol
module Tbl = Tandem_sim.Tbl

type reply_slots = (int * Message.payload) Ids.Pid_tbl.t

type t = {
  net : Net.t;
  tmf : Tmf.t;
  node : Node.t;
  dp_name : string;
  trail_name : string;
  volume : Tandem_disk.Volume.t;
  dp_store : Store.t;
  files : File.t Tbl.String.t;
  locks : Tandem_lock.Lock_table.t;
  audit_buffers : Tandem_audit.Audit_record.image list Tbl.String.t;
      (* transid -> images, newest first *)
  mutable generation : int;
      (* bumped by total failure: a write that completes across a bump was
         issued by a transaction that died with the node's memory *)
  reply_slots : reply_slots;
      (* requester -> op_id and reply of its newest completed data request.
         Op ids rise (one counter per network) and a requester retries with
         the same op_id and awaits each reply before its next request, so one
         slot per requester turns every path retry into a replay. *)
  data_mutex : Tandem_sim.Fiber_mutex.t;
      (* Serializes structured-file operations: one multi-block data access
         at a time, as in the real single-threaded DISCPROCESS. Lock-manager
         waits happen before taking it. *)
  mutable pair : Process_pair.t option;
  coalesced_checkpoints : Tandem_sim.Metrics.counter Lazy.t;
  checkpoint_batch_size : Tandem_sim.Metrics.sample Lazy.t;
}

let node_id t = Node.id t.node

let store t = t.dp_store

let lock_table t = t.locks

let file t file_name = Tbl.String.find_opt t.files file_name

let add_file t def =
  let file_name = def.Schema.file_name in
  if Tbl.String.mem t.files file_name then
    invalid_arg ("Discprocess.add_file: duplicate " ^ file_name);
  let file = File.create t.dp_store def in
  Tbl.String.replace t.files file_name file;
  file

let reply_slots t = t.reply_slots

let audit_buffer_depth t =
  Tbl.String.fold
    (fun _ images acc -> acc + List.length images)
    t.audit_buffers 0

(* ------------------------------------------------------------------ *)
(* Request execution *)

let checkpoint_cost t =
  match t.pair with Some pair -> Process_pair.checkpoint pair | None -> ()

let transaction_of t ~cpu (op : op_meta) =
  match op.transid with
  | None -> Ok None
  | Some transid -> (
      match Tmf.state_of t.tmf ~node:(node_id t) ~cpu transid with
      | Some Tmf.Tx_state.Active -> Ok op.transid
      | Some _ | None -> Error Tx_rejected)

(* A holder that is no longer registered with TMF is a ghost: its phase-two
   release was lost (for example, in flight to a primary that died). The
   per-processor state tables the paper broadcasts exist exactly so the
   DISCPROCESS can recognize such transactions; reap and retry once. *)
let reap_if_stale t resource =
  match Tandem_lock.Lock_table.holder t.locks resource with
  | Some owner
    when not (Tmf.transaction_is_live t.tmf ~node:(node_id t) owner) ->
      Tandem_lock.Lock_table.release_all t.locks ~owner;
      Tandem_sim.Metrics.incr
        (Tandem_sim.Metrics.counter (Net.metrics t.net) "lock.stale_reaped");
      true
  | Some _ | None -> false

let acquire_record t transaction ~cpu ~timeout ~file_name ~key =
  match transaction with
  | None -> Ok ()
  | Some transid -> (
      let resource =
        Tandem_lock.Lock_table.Record_lock { file = file_name; key }
      in
      (* A grant can arrive after a queue wait, during which the transaction
         may have been aborted — its phase two already released every lock
         it held, so accepting a late grant would strand this one. Re-check
         the per-processor state table after every grant. *)
      let granted () =
        match Tmf.state_of t.tmf ~node:(node_id t) ~cpu transid with
        | Some Tmf.Tx_state.Active -> Ok ()
        | Some _ | None ->
            Tandem_lock.Lock_table.release_all t.locks ~owner:transid;
            Error Tx_rejected
      in
      match
        Tandem_lock.Lock_table.acquire t.locks ~owner:transid ~timeout resource
      with
      | `Granted -> granted ()
      | `Timeout -> (
          if reap_if_stale t resource then begin
            match
              Tandem_lock.Lock_table.acquire t.locks ~owner:transid ~timeout
                resource
            with
            | `Granted -> granted ()
            | `Timeout -> Error Lock_timeout
          end
          else Error Lock_timeout))

(* The audit intention is checkpointed to the backup before the request is
   answered: the functional equivalent of Write Ahead Log. With coalescing
   (the default) the images a request produces ride one checkpoint issued by
   [execute] after the data mutex is released — [pending] counts them; the
   ablation mode pays one synchronous bus round trip per image, inside the
   critical section, as the seed did. *)
let buffer_audit t transaction ~pending (file : File.t) change =
  match transaction with
  | None -> ()
  | Some transid ->
      if (File.def file).Schema.audited then begin
        let key = Tmf.Transid.to_string transid in
        let image =
          Tandem_audit.Audit_record.of_change ~volume:t.dp_name change
        in
        let existing =
          Option.value ~default:[] (Tbl.String.find_opt t.audit_buffers key)
        in
        Tbl.String.replace t.audit_buffers key (image :: existing);
        if (Net.config t.net).Hw_config.dp_checkpoint_coalescing then
          incr pending
        else checkpoint_cost t
      end

(* Security control by network node: the requester's node (from the message
   envelope) must be allowed by the file definition. *)
let check_access t ~requester payload =
  let allowed file_name =
    match file t file_name with
    | None -> true (* the per-operation lookup reports the missing file *)
    | Some f -> Schema.node_allowed (File.def f) requester.Ids.node
  in
  match payload with
  | Dp_read { file; _ } | Dp_insert { file; _ } | Dp_update { file; _ }
  | Dp_delete { file; _ } | Dp_append { file; _ } | Dp_next { file; _ }
  | Dp_lookup_index { file; _ } | Dp_lock_file { file; _ } ->
      allowed file
  | _ -> true

(* The record lock a data request takes: none, the record it names (queued
   before the data mutex), or the entry an append assigns (once written). *)
type lock = No_lock | Lock_key of string | Lock_assigned

(* What a data access did: answered outright, or wrote a record (its key and
   the change to audit). *)
type access = Answer of Message.payload | Wrote of string * File.change

let execute_op t process ~requester ~pending (op : op_meta) payload =
  let generation = t.generation in
  let cpu = (Process.pid process).Ids.cpu in
  Cpu.consume (Process.cpu process) Hw_config.cpu_db_op_cost;
  if not (check_access t ~requester payload) then Dp_error Security_violation
  else
  match transaction_of t ~cpu op with
  | Error e -> Dp_error e
  | Ok transaction -> (
      let acquire ~file_name ~key =
        acquire_record t transaction ~cpu ~timeout:op.lock_timeout ~file_name
          ~key
      in
      (* Every file access passes here: the file lookup, the record lock, the
         data mutex, and then either the audit image of a write or — when
         the node's volatile state died while the write was in flight — its
         revert. Such a mutation landed in a post-crash world on behalf of a
         transaction that no longer exists, and nothing would ever back it
         out: undo it in place (the before-image is in hand) and reject. *)
      let guard ~file_name ?(lock = No_lock) access =
        match file t file_name with
        | None -> Dp_error (Bad_request ("no such file " ^ file_name))
        | Some file -> (
            let locked =
              match lock with
              | Lock_key key -> acquire ~file_name ~key
              | No_lock | Lock_assigned -> Ok ()
            in
            match locked with
            | Error e -> Dp_error e
            | Ok () -> (
                try
                  Tandem_sim.Fiber_mutex.with_lock t.data_mutex @@ fun () ->
                  match access file with
                  | Answer reply -> reply
                  | Wrote (_, change) when t.generation <> generation ->
                      File.apply_undo file change;
                      Dp_error Tx_rejected
                  | Wrote (key, change) ->
                      (* An appended entry is locked for the transaction, as
                         an inserted record would be. *)
                      if lock = Lock_assigned then
                        ignore (acquire ~file_name ~key : (unit, error) result);
                      buffer_audit t transaction ~pending file change;
                      Dp_done { key }
                with Tandem_disk.Volume.Unavailable _ -> Dp_error Volume_down))
      in
      let write ~file_name key change =
        guard ~file_name ~lock:(Lock_key key) (fun file ->
            match change file with
            | Ok change -> Wrote (key, change)
            | Error `Duplicate -> Answer (Dp_error Duplicate)
            | Error `Not_found -> Answer (Dp_error Not_found)
            | Error `Bad_key -> Answer (Dp_error (Bad_request "bad key")))
      in
      match payload with
      | Dp_read { file = file_name; key; lock; _ } ->
          guard ~file_name
            ~lock:(if lock then Lock_key key else No_lock)
            (fun file -> Answer (Dp_value (File.read file key)))
      | Dp_insert { file = file_name; key; payload; _ } ->
          write ~file_name key (fun file -> File.insert file key payload)
      | Dp_update { file = file_name; key; payload; _ } ->
          write ~file_name key (fun file -> File.update file key payload)
      | Dp_delete { file = file_name; key; _ } ->
          write ~file_name key (fun file -> File.delete file key)
      | Dp_append { file = file_name; payload; _ } ->
          guard ~file_name ~lock:Lock_assigned (fun file ->
              match File.append file payload with
              | Ok (key, change) -> Wrote (key, change)
              | Error `Wrong_organization ->
                  Answer (Dp_error (Bad_request "not entry-sequenced")))
      | Dp_next { file = file_name; after; inclusive; _ } ->
          guard ~file_name (fun file ->
              Answer
                (match (inclusive, File.read file after) with
                | true, Some payload -> Dp_pair (Some (after, payload))
                | true, None | false, _ ->
                    Dp_pair (File.next_after file after)))
      | Dp_lookup_index { file = file_name; index; alternate; _ } ->
          guard ~file_name (fun file ->
              Answer
                (match File.lookup_index file ~index alternate with
                | keys -> Dp_keys keys
                | exception Invalid_argument m -> Dp_error (Bad_request m)))
      | Dp_lock_file { file = file_name; _ } -> (
          match transaction with
          | None -> Dp_error (Bad_request "file lock outside transaction")
          | Some transid -> (
              match
                Tandem_lock.Lock_table.acquire t.locks ~owner:transid
                  ~timeout:op.lock_timeout
                  (Tandem_lock.Lock_table.File_lock file_name)
              with
              | `Granted -> Dp_ok
              | `Timeout -> Dp_error Lock_timeout))
      | _ -> Dp_error (Bad_request "unknown operation"))

(* Coalesced checkpoint: one bus round trip carries every audit image the
   request produced, issued after the data mutex is released so the
   2×bus-latency wait never serializes other requests on the volume. *)
let execute t process ~requester (op : op_meta) payload =
  let pending = ref 0 in
  let reply = execute_op t process ~requester ~pending op payload in
  if !pending > 0 then begin
    Tandem_sim.Metrics.incr (Lazy.force t.coalesced_checkpoints);
    Tandem_sim.Metrics.observe (Lazy.force t.checkpoint_batch_size)
      (float_of_int !pending);
    checkpoint_cost t
  end;
  reply

(* ------------------------------------------------------------------ *)
(* TMF-side requests (flush, release, undo) *)

let flush_audit t process transid =
  let key = Tmf.Transid.to_string transid in
  match Tbl.String.find_opt t.audit_buffers key with
  | None | Some [] -> Dp_flushed 0
  | Some images_newest_first -> (
      match
        Tandem_audit.Audit_process.append_images t.net ~self:process
          ~node:(node_id t) ~name:t.trail_name ~transid
          (List.rev images_newest_first)
      with
      | Ok () ->
          Tbl.String.remove t.audit_buffers key;
          Dp_flushed (List.length images_newest_first)
      | Error e ->
          Dp_error (Bad_request (Format.asprintf "audit flush: %a" Rpc.pp_error e)))

let release t transid =
  Tandem_lock.Lock_table.release_all t.locks ~owner:transid;
  Tbl.String.remove t.audit_buffers (Tmf.Transid.to_string transid);
  Dp_ok

let undo t image =
  match file t image.Tandem_audit.Audit_record.file with
  | None -> Dp_error (Bad_request "no such file")
  | Some file -> (
      try
        Tandem_sim.Fiber_mutex.with_lock t.data_mutex (fun () ->
            File.apply_undo file (Tandem_audit.Audit_record.undo_change image));
        checkpoint_cost t;
        Dp_ok
      with Tandem_disk.Volume.Unavailable _ -> Dp_error Volume_down)

(* ------------------------------------------------------------------ *)
(* Service loop *)

let handle t process message =
  let respond payload =
    match message.Message.kind with
    | Message.Request -> Rpc.reply t.net ~self:process ~to_:message payload
    | Message.Reply | Message.Oneway -> ()
  in
  match message.Message.payload with
  | Dp_read { op; _ } | Dp_insert { op; _ } | Dp_update { op; _ }
  | Dp_delete { op; _ } | Dp_append { op; _ } | Dp_next { op; _ }
  | Dp_lookup_index { op; _ } | Dp_lock_file { op; _ } ->
      (* Each data request runs in its own fiber: a request waiting for a
         lock must not stall the volume. A path retry of the requester's
         newest operation replays its saved reply; a retry older than that
         belongs to an operation the requester gave up on, and is refused. *)
      Process.spawn_fiber process (fun () ->
          let requester = message.Message.src in
          match Ids.Pid_tbl.find_opt t.reply_slots requester with
          | Some (saved, reply) when saved = op.op_id -> respond reply
          | Some (saved, _) when saved > op.op_id ->
              respond (Dp_error (Bad_request "stale retry"))
          | _ ->
              let reply =
                execute t process ~requester op message.Message.payload
              in
              (match Ids.Pid_tbl.find_opt t.reply_slots requester with
              | Some (saved, _) when saved > op.op_id ->
                  () (* a late completion never displaces a newer reply *)
              | _ ->
                  Ids.Pid_tbl.replace t.reply_slots requester (op.op_id, reply));
              respond reply)
  | Dp_flush_audit transid ->
      Process.spawn_fiber process (fun () ->
          respond (flush_audit t process transid))
  | Dp_release transid -> respond (release t transid)
  | Dp_undo image ->
      Process.spawn_fiber process (fun () -> respond (undo t image))
  | _ -> ()

let service t pair process =
  t.pair <- Some pair;
  Process_pair.serve pair process (handle t process)

let spawn ~net ~tmf ~node ~volume ~name ~trail ~primary_cpu ~backup_cpu
    ?(cache_capacity = 256) () =
  let t =
    {
      net;
      tmf;
      node;
      dp_name = name;
      trail_name = trail;
      volume;
      dp_store = Store.create volume ~cache_capacity;
      files = Tbl.String.create 8;
      locks =
        Tandem_lock.Lock_table.create ~spans:(Net.spans net) (Net.engine net)
          ~metrics:(Net.metrics net) ~name;
      audit_buffers = Tbl.String.create 32;
      generation = 0;
      reply_slots = Ids.Pid_tbl.create 8;
      data_mutex = Tandem_sim.Fiber_mutex.create ();
      pair = None;
      coalesced_checkpoints =
        lazy (Tandem_sim.Metrics.counter (Net.metrics net) "dp.coalesced_checkpoints");
      checkpoint_batch_size =
        lazy (Tandem_sim.Metrics.sample (Net.metrics net) "dp.checkpoint_batch_size");
    }
  in
  let pair =
    Process_pair.create ~net ~node ~name ~primary_cpu ~backup_cpu
      ~service:(service t)
  in
  t.pair <- Some pair;
  Tmf.register_participant tmf
    {
      Tmf.Participant.volume = name;
      node = Node.id node;
      trail;
      flush_audit =
        (fun ~self transid ->
          match
            Rpc.call_name net ~self ~node:(Node.id node) ~name
              (Dp_flush_audit transid)
          with
          | Ok (Dp_flushed images) -> Ok images
          | Ok Dp_ok -> Ok 0
          | Ok (Dp_error e) -> Error (Format.asprintf "%a" pp_error e)
          | Ok _ -> Error "protocol violation"
          | Error e -> Error (Format.asprintf "%a" Rpc.pp_error e));
      release_locks =
        (fun ~self transid ->
          (* Reliable delivery: a lost release would strand locks; the
             name-addressed retry rides out pair takeovers. *)
          ignore
            (Rpc.call_name net ~self ~node:(Node.id node) ~name
               (Dp_release transid)));
      apply_undo =
        (fun ~self image ->
          match
            Rpc.call_name net ~self ~node:(Node.id node) ~name (Dp_undo image)
          with
          | Ok Dp_ok -> Ok ()
          | Ok (Dp_error e) -> Error (Format.asprintf "%a" pp_error e)
          | Ok _ -> Error "protocol violation"
          | Error e -> Error (Format.asprintf "%a" Rpc.pp_error e));
    };
  t

let is_up t = match t.pair with Some pair -> Process_pair.is_up pair | None -> false

let rollforward_target t =
  {
    Tmf.Rollforward.target_volume = t.dp_name;
    take_snapshot =
      (fun () ->
        let blocks = Store.snapshot t.dp_store in
        let metadata =
          Tbl.String.fold
            (fun _ file acc -> File.snapshot file :: acc)
            t.files []
        in
        fun () ->
          Store.restore t.dp_store blocks;
          Store.overwrite_disk_image t.dp_store;
          List.iter (fun restore -> restore ()) metadata);
    unflushed_images =
      (fun () ->
        (* Each per-transaction buffer is newest first already. *)
        Tbl.String.fold
          (fun _ images acc -> images @ acc)
          t.audit_buffers []);
    redo =
      (fun image ->
        match file t image.Tandem_audit.Audit_record.file with
        | Some file ->
            File.apply_redo file (Tandem_audit.Audit_record.redo_change image)
        | None -> ());
    undo =
      (fun image ->
        match file t image.Tandem_audit.Audit_record.file with
        | Some file ->
            File.apply_undo file (Tandem_audit.Audit_record.undo_change image)
        | None -> ());
    prefetch =
      (fun image ->
        match file t image.Tandem_audit.Audit_record.file with
        | Some file ->
            ignore
              (File.read file (Tandem_audit.Audit_record.redo_change image).key)
        | None -> ());
  }

let simulate_total_failure t =
  t.generation <- t.generation + 1;
  Store.crash t.dp_store;
  Tbl.String.reset t.audit_buffers;
  Ids.Pid_tbl.reset t.reply_slots;
  Tandem_lock.Lock_table.reset t.locks
