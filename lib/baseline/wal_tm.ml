open Tandem_sim
open Tandem_db

type log_body = Change of int * File.change | Commit_record of int

type log_entry = { lsn : int; body : log_body }

type tx = {
  owner : Transid.t; (* single system: home 0, cpu 0, seq the log's id *)
  mutable live : bool;
  mutable undo : File.change list; (* newest first: the in-memory log tail *)
  mutable epoch : int; (* crash epoch the transaction was born in *)
}

type control_point = { restore : unit -> unit; log_position : int }

type t = {
  engine : Engine.t;
  metrics : Metrics.t;
  store : Store.t;
  log_volume : Tandem_disk.Volume.t;
  files : (string, File.t) Hashtbl.t;
  locks : Tandem_lock.Lock_table.t;
  data_mutex : Fiber_mutex.t;
  lock_timeout : Sim_time.span;
  restart_overhead : Sim_time.span;
  mutable log : log_entry list; (* newest first *)
  mutable next_lsn : int;
  mutable forced_lsn : int; (* highest lsn safely on oxide *)
  mutable next_tx : int;
  mutable available : bool;
  mutable epoch : int;
  mutable last_control_point : control_point option;
  mutable halted_at : Sim_time.t;
  mutable outage_total : Sim_time.span;
  mutable live_txs : tx list;
}

let create ~engine ~metrics ~data_volume ~log_volume ?(cache_capacity = 256)
    ?(lock_timeout = Sim_time.seconds 1) () =
  {
    engine;
    metrics;
    store = Store.create data_volume ~cache_capacity;
    log_volume;
    files = Hashtbl.create 8;
    locks = Tandem_lock.Lock_table.create engine ~metrics ~name:"baseline";
    data_mutex = Fiber_mutex.create ();
    lock_timeout;
    restart_overhead = Sim_time.seconds 5;
    log = [];
    next_lsn = 0;
    forced_lsn = -1;
    next_tx = 0;
    available = true;
    epoch = 0;
    last_control_point = None;
    halted_at = Sim_time.zero;
    outage_total = 0;
    live_txs = [];
  }

let counter t name = Metrics.counter t.metrics ("baseline." ^ name)

(* A control point, taken after each set-up load: snapshot the blocks and
   file metadata, note the log position. Restart recovers from here by
   redoing winners. *)
let take_control_point t =
  let blocks = Store.snapshot t.store in
  let metadata =
    Hashtbl.fold (fun _ file acc -> File.snapshot file :: acc) t.files []
  in
  t.last_control_point <-
    Some
      {
        restore =
          (fun () ->
            Store.restore t.store blocks;
            Store.overwrite_disk_image t.store;
            List.iter (fun thunk -> thunk ()) metadata);
        log_position = t.next_lsn;
      }

let add_file t def = Hashtbl.replace t.files def.Schema.file_name (File.create t.store def)

let require_file t file =
  match Hashtbl.find_opt t.files file with
  | Some f -> f
  | None -> invalid_arg ("Wal_tm: no such file " ^ file)

let load_file t ~file records =
  File.load [ (Key.min_key, require_file t file) ] records;
  take_control_point t

let is_available t = t.available

let begin_transaction t =
  if not t.available then Error `Unavailable
  else begin
    t.next_tx <- t.next_tx + 1;
    let tx =
      {
        owner = Transid.make ~home:0 ~cpu:0 ~seq:t.next_tx;
        live = true;
        undo = [];
        epoch = t.epoch;
      }
    in
    t.live_txs <- tx :: t.live_txs;
    Metrics.incr (counter t "begins");
    Ok tx
  end

let tx_valid t tx = t.available && tx.live && tx.epoch = t.epoch

let append_log t body =
  let entry = { lsn = t.next_lsn; body } in
  t.next_lsn <- t.next_lsn + 1;
  t.log <- entry :: t.log;
  Metrics.incr (counter t "log_records");
  entry.lsn

(* Force the log through [lsn]. Durability is established only when the
   physical write completes — a crash during the force loses the tail. *)
let force_log_through t lsn =
  let epoch = t.epoch in
  Tandem_disk.Volume.force_io t.log_volume;
  Metrics.incr (counter t "forced_log_writes");
  if t.epoch = epoch then begin
    t.forced_lsn <- max t.forced_lsn lsn;
    true
  end
  else false

(* The WAL rule: the log record reaches oxide before the data base is
   touched. *)
let force_log_for_change t tx change =
  let lsn = append_log t (Change (tx.owner.seq, change)) in
  force_log_through t lsn

let acquire t tx ~file key =
  match
    Tandem_lock.Lock_table.acquire t.locks ~owner:tx.owner
      ~timeout:t.lock_timeout
      (Tandem_lock.Lock_table.Record_lock { file; key })
  with
  | `Granted -> Ok ()
  | `Timeout -> Error `Lock_timeout

let read t tx ~file key =
  if not (tx_valid t tx) then Error `Halted
  else begin
    match acquire t tx ~file key with
    | Error `Lock_timeout -> Error `Lock_timeout
    | Ok () ->
        Ok (Fiber_mutex.with_lock t.data_mutex (fun () ->
                File.read (require_file t file) key))
  end

let mutate t tx ~file key perform =
  if not (tx_valid t tx) then Error `Halted
  else begin
    match acquire t tx ~file key with
    | Error `Lock_timeout -> Error `Lock_timeout
    | Ok () -> (
        match
          Fiber_mutex.with_lock t.data_mutex (fun () ->
              perform (require_file t file))
        with
        | Error _ as e -> e
        | Ok change ->
            tx.undo <- change :: tx.undo;
            Ok ())
  end

let update t tx ~file key payload =
  mutate t tx ~file key (fun f ->
      (* Log force precedes the data-base update. The change record needs
         the before-image, so it is built from a pre-read. *)
      match File.read f key with
      | None -> Error `Not_found
      | Some before ->
          let change =
            { File.file; key; before = Some before; after = Some payload }
          in
          if not (force_log_for_change t tx change) then Error `Halted
          else begin
            (match File.update f key payload with
            | Ok _ -> ()
            | Error _ -> assert false);
            Ok change
          end)

let finish t tx =
  tx.live <- false;
  t.live_txs <- List.filter (fun other -> other != tx) t.live_txs;
  Tandem_lock.Lock_table.release_all t.locks ~owner:tx.owner

let commit t tx =
  if not (tx_valid t tx) then Error `Halted
  else begin
    let lsn = append_log t (Commit_record tx.owner.seq) in
    if force_log_through t lsn then begin
      Metrics.incr (counter t "commits");
      finish t tx;
      Ok ()
    end
    else Error `Halted (* the commit record never reached oxide *)
  end

let abort t tx =
  if tx.live && tx.epoch = t.epoch then begin
    List.iter
      (fun change -> File.apply_undo (require_file t change.File.file) change)
      tx.undo;
    Metrics.incr (counter t "aborts");
    finish t tx
  end

let file_contents t ~file =
  let f = require_file t file in
  Store.set_charging t.store false;
  let contents = ref [] in
  File.iter f (fun key payload -> contents := (key, payload) :: !contents);
  Store.set_charging t.store true;
  List.rev !contents

(* ------------------------------------------------------------------ *)

let crash t =
  if t.available then begin
    t.available <- false;
    t.epoch <- t.epoch + 1;
    t.halted_at <- Engine.now t.engine;
    Metrics.add (counter t "transactions_lost") (List.length t.live_txs);
    t.live_txs <- [];
    (* The unforced log tail is lost with main memory. *)
    t.log <- List.filter (fun e -> e.lsn <= t.forced_lsn) t.log;
    t.next_lsn <- t.forced_lsn + 1;
    Tandem_lock.Lock_table.reset t.locks;
    Store.crash t.store;
    Metrics.incr (counter t "crashes")
  end

let restart t ~on_done =
  if t.available then on_done ()
  else begin
    ignore
      (Fiber.spawn ~engine:t.engine (fun () ->
           (* Operating system reload and recovery start-up. *)
           Fiber.sleep t.engine t.restart_overhead;
           (match t.last_control_point with
           | None -> ()
           | Some cp ->
               cp.restore ();
               (* Scan the surviving log after the control point. *)
               let entries =
                 List.rev
                   (List.filter (fun e -> e.lsn >= cp.log_position) t.log)
               in
               (* One physical log read per 64 records scanned. *)
               List.iteri
                 (fun i _ ->
                   if i mod 64 = 0 then
                     Tandem_disk.Volume.read_io t.log_volume)
                 entries;
               let winners = Hashtbl.create 64 in
               List.iter
                 (fun e ->
                   match e.body with
                   | Commit_record tx_id -> Hashtbl.replace winners tx_id ()
                   | Change _ -> ())
                 entries;
               (* Redo winners in log order; losers were never applied to
                  the control-point image. *)
               List.iter
                 (fun e ->
                   match e.body with
                   | Change (tx_id, change) when Hashtbl.mem winners tx_id ->
                       File.apply_redo (require_file t change.File.file) change
                   | Change _ | Commit_record _ -> ())
                 entries);
           t.available <- true;
           let outage = Sim_time.diff (Engine.now t.engine) t.halted_at in
           t.outage_total <- t.outage_total + outage;
           Metrics.observe_span t.metrics "baseline.restart_ms" outage;
           on_done ()))
  end

let unavailable_total t = t.outage_total

let forced_log_writes t = Metrics.read_counter t.metrics "baseline.forced_log_writes"
