(* ENGINE — the wall-clock cost of the simulator itself, in one table.

   Every other experiment measures *simulated* seconds; this one measures
   how fast the host runs the simulator's own code, because at scale-out
   sizes (exp_scaleout: millions of events per run) that code is the
   wall-clock bottleneck. Three groups:

   - engine/ and metrics/: event shapes the bank workloads generate — the
     pure heap add/pop/dispatch cycle, the commit path's arm-and-cancel
     timeouts, Fiber.sleep wake-ups, Mailbox dispatch to a 16-server class
     and the labeled-counter bump of the per-RPC instrumentation. One op is
     one engine event (one increment for the counter).
   - hotpath/: the index-backed TMF structures at sizes where list-backed
     implementations went quadratic (docs/PERFORMANCE.md).
   - core/: single data-path operations — B-tree insert, bulk load,
     lookup, update and scan, lock acquire+release, audit append, record
     field decode — and one whole simulated debit-credit transaction.

   Each benchmark builds its fixture untimed, the heap is compacted, and
   then one timer measures a fixed number of operations (a twentieth of it
   in quick mode). A full run rewrites BENCH_engine.json with the measured
   rates, stamped with the host they were measured on. A quick run leaves
   the JSON untouched, runs the whole table three times over and fails
   unless every row's best repetition reaches a third of its committed
   rate. *)

open Tandem_sim
open Tandem_db
open Bench_util

(* ------------------------------------------------------------------ *)
(* Engine workloads. Each runs to a budget and returns the events driven. *)

(* 256 concurrent self-rescheduling timers racing to a shared budget: the
   heap stays ~256 deep, every iteration is one pop + one push + one
   dispatch. *)
let schedule_fire_storm budget =
  let engine = Engine.create ~seed:11 () in
  let fired = ref 0 in
  let lanes = 256 in
  let rec tick lane () =
    incr fired;
    if !fired + lanes <= budget then
      ignore (Engine.schedule_after engine ((lane mod 97) + 1) (tick lane))
  in
  for lane = 1 to lanes do
    ignore (Engine.schedule_after engine lane (tick lane))
  done;
  Engine.run engine;
  !fired

(* The commit path's timer shape: each completed unit of work cancels a
   far-future timeout it armed. The cancelled events sit an hour in the
   simulated future — a seed-style engine carries all of them to the end
   of the run. *)
let cancel_storm budget =
  let engine = Engine.create ~seed:13 () in
  let fired = ref 0 in
  let hour = Sim_time.minutes 60 in
  let rec work () =
    incr fired;
    if !fired < budget then begin
      let timeout = Engine.schedule_after engine hour (fun () -> ()) in
      ignore
        (Engine.schedule_after engine 1 (fun () ->
             Engine.cancel timeout;
             work ()))
    end
  in
  ignore (Engine.schedule_after engine 1 work);
  Engine.run engine;
  (* Each unit is a work event plus a completion event; the armed timeout
     never fires. *)
  2 * !fired

(* Suspend/resume through the effect machinery: what every Cpu.consume and
   protocol retry pause costs. *)
let fiber_sleep_churn budget =
  let engine = Engine.create ~seed:17 () in
  let fibers = 64 in
  let per_fiber = budget / fibers in
  for f = 1 to fibers do
    ignore
      (Fiber.spawn (fun () ->
           for i = 1 to per_fiber do
             Fiber.sleep engine ((((f * 31) + i) mod 53) + 1)
           done))
  done;
  Engine.run engine;
  fibers * per_fiber

let pid serial = { Tandem_os.Ids.node = 1; cpu = 0; serial }

(* Server-class dispatch through a Mailbox: 16 parked servers (the shape
   of every $BANK/$TRANSFER server class), each message waking the oldest
   waiter, plus one producer sleep event per message. *)
let mailbox_dispatch budget =
  let engine = Engine.create ~seed:19 () in
  let mailbox = Tandem_os.Mailbox.create () in
  let message =
    Tandem_os.Message.oneway ~src:(pid 1) ~dst:(pid 2) Tandem_os.Message.Ping
  in
  let servers = 16 in
  let rounds = budget / 2 in
  for _ = 1 to servers do
    ignore
      (Fiber.spawn (fun () ->
           for _ = 1 to rounds / servers do
             ignore (Tandem_os.Mailbox.receive mailbox)
           done))
  done;
  ignore
    (Fiber.spawn (fun () ->
         for _ = 1 to rounds do
           Tandem_os.Mailbox.enqueue mailbox message;
           Fiber.sleep engine 1
         done));
  Engine.run engine;
  2 * rounds

(* The labeled-counter bump the per-RPC / per-message instrumentation
   pays, through the pre-resolved family handle. *)
let labeled_counter_bump budget =
  let metrics = Metrics.create () in
  let calls = Metrics.counter_family metrics ~name:"rpc.calls" ~label:"name" in
  let names = [| "$TMP"; "BANK"; "TRANSFER"; "INQUIRY" |] in
  for i = 1 to budget do
    Metrics.incr (Metrics.family_counter calls names.(i land 3))
  done;
  budget

(* ------------------------------------------------------------------ *)
(* Fixtures of the hot-path and core rows. *)

(* [body i] for i = 1..n: one op per call. *)
let each body n =
  for i = 1 to n do
    body i
  done;
  n

let make_volume () =
  Tandem_disk.Volume.create (Engine.create ()) ~metrics:(Metrics.create ())
    ~name:"$B" ~access_time:(Sim_time.milliseconds 25)

let make_store () =
  let store = Store.create (make_volume ()) ~cache_capacity:1024 in
  Store.set_charging store false;
  store

let make_tree keys =
  let tree = Btree.create (make_store ()) ~name:"B" ~degree:16 in
  for i = 0 to keys - 1 do
    ignore (Btree.insert tree (Key.of_int i) "payload")
  done;
  tree

let make_trail ?records_per_file () =
  Tandem_audit.Audit_trail.create (make_volume ()) ~name:"$B" ?records_per_file
    ()

let make_locks () =
  Tandem_lock.Lock_table.create (Engine.create ()) ~metrics:(Metrics.create ())
    ~name:"$B"

let record_lock file key = Tandem_lock.Lock_table.Record_lock { file; key }

let trail_image key =
  {
    Tandem_audit.Audit_record.volume = "$B";
    file = "F";
    key;
    before = Some "old";
    after = Some "new";
  }

let transid seq = Transid.make ~home:1 ~cpu:0 ~seq

(* A 10k-record trail shared by 16 concurrent transactions. *)
let shared_trail () =
  let trail = make_trail () in
  let transids = Array.init 16 transid in
  for i = 0 to 9_999 do
    ignore
      (Tandem_audit.Audit_trail.append trail ~transid:transids.(i mod 16)
         (trail_image (string_of_int i)))
  done;
  trail

(* Backout's read pattern: all records of ONE live transaction, read from
   the index as appended. *)
let backout_scan () =
  let trail = shared_trail () and transid = transid 7 in
  each (fun _ -> ignore (Tandem_audit.Audit_trail.records_for trail ~transid))

(* Recovery's read pattern: the same transaction once settled, its 625
   records decoded along its back-link chain. *)
let settled_scan () =
  let trail = shared_trail () and transid = transid 7 in
  Tandem_audit.Audit_trail.settle trail ~transid;
  each (fun _ -> ignore (Tandem_audit.Audit_trail.records_for trail ~transid))

(* The cumulative append cost of filling one large audit file (trails
   configured for few rollovers see multi-thousand-record files; a
   per-append length scan makes the fill quadratic). *)
let audit_append_fill () =
  let image = trail_image "k" and transid = transid 1 in
  each (fun _ ->
      let trail = make_trail ~records_per_file:2_000 () in
      for _ = 0 to 1_999 do
        ignore (Tandem_audit.Audit_trail.append trail ~transid image)
      done)

(* Phase two's unlock: release ONE transaction's 1k locks out of a table
   holding 300k other-owner locks across 150 files (a busy volume's steady
   state). Keys are precomputed so the timed cost is the table's, not
   Printf's. *)
let lock_release_scaling () =
  let locks = make_locks () in
  let background = Array.init 10 (fun seq -> Transid.make ~home:2 ~cpu:0 ~seq) in
  for file = 0 to 149 do
    for k = 0 to 1_999 do
      ignore
        (Tandem_lock.Lock_table.try_acquire locks ~owner:background.(k mod 10)
           (record_lock (Printf.sprintf "F%d" file) (string_of_int k)))
    done
  done;
  let owner = transid 0 in
  let wanted =
    Array.init 1_000 (fun k -> record_lock "F0" (Printf.sprintf "b%d" k))
  in
  each (fun _ ->
      Array.iter
        (fun resource ->
          ignore
            (Tandem_lock.Lock_table.try_acquire locks ~owner resource))
        wanted;
      Tandem_lock.Lock_table.release_all locks ~owner)

(* The TMP safe-delivery queue: enqueue 1k phase-two messages (the engine
   never runs, so nothing is delivered — this is the pure enqueue path a
   partition exercises). The transids are made untimed. *)
let safe_queue_fill () =
  let transids =
    Array.init 1_000 (fun seq -> Tmf.Transid.make ~home:1 ~cpu:0 ~seq)
  in
  each (fun _ ->
      let net = Tandem_os.Net.create () in
      let node = Tandem_os.Net.add_node net ~id:1 ~cpus:2 in
      let volume =
        Tandem_disk.Volume.create (Tandem_os.Net.engine net)
          ~metrics:(Tandem_os.Net.metrics net) ~name:"$M"
          ~access_time:(Sim_time.milliseconds 25)
      in
      let state =
        Tmf.Tmf_state.make_node_state ~node ~monitor_volume:volume ()
      in
      let tmp = Tmf.Tmp.spawn ~net ~state ~primary_cpu:0 ~backup_cpu:1 in
      Array.iter
        (fun transid ->
          Tmf.Tmp.safe_deliver tmp 2 (Tmf.Tmp.Phase2_commit transid))
        transids)

(* A participant's monitor trail: 8,192 dispositions for four remote
   (home, cpu) pairs, each pair's sequence numbers ascending but shuffled
   within windows of 32, the order phase two reaches a participant in.
   One in 16 is forced, as a 2PC commit record is; the rest are written
   unforced, then every one is looked up. One op is one disposition, and
   each run of 8,192 fills a fresh trail, so an insert that shifts the
   whole run (quadratic in the trail) shows at any op count. *)
let monitor_fill_size = 8_192

let monitor_participant () =
  let rng = Rng.create ~seed:23 in
  let transids =
    Array.init monitor_fill_size (fun i ->
        let pair = i land 3 and n = i lsr 2 in
        Transid.make ~home:(2 + (pair lsr 1)) ~cpu:(pair land 1) ~seq:n)
  in
  (* Shuffle within windows of 32 entries per pair (128 in the array). *)
  for start = 0 to (monitor_fill_size / 128) - 1 do
    for i = 127 downto 1 do
      let j = Rng.int rng (i + 1) in
      let a = (start * 128) + i and b = (start * 128) + j in
      let x = transids.(a) in
      transids.(a) <- transids.(b);
      transids.(b) <- x
    done
  done;
  fun ops ->
    let fills = (ops + monitor_fill_size - 1) / monitor_fill_size in
    for _ = 1 to fills do
      let engine = Engine.create () in
      let volume =
        Tandem_disk.Volume.create engine ~metrics:(Metrics.create ()) ~name:"$M"
          ~access_time:(Sim_time.milliseconds 5)
      in
      let monitor = Tandem_audit.Monitor_trail.create volume in
      ignore
        (Fiber.spawn (fun () ->
             Array.iteri
               (fun i transid ->
                 if i land 15 = 0 then
                   Tandem_audit.Monitor_trail.record monitor ~transid
                     Tandem_audit.Monitor_trail.Committed
                 else
                   Tandem_audit.Monitor_trail.record_unforced monitor ~transid
                     Tandem_audit.Monitor_trail.Aborted)
               transids));
      Engine.run engine;
      Array.iter
        (fun transid ->
          ignore (Tandem_audit.Monitor_trail.disposition_of monitor ~transid))
        transids
    done;
    fills * monitor_fill_size

(* The span registry at its steady state: a full 4,096-slot ring, each op
   starting and finishing one transaction (the ring trims every 2,048)
   and sending a late phase-two event to the one finished 100 ops before,
   which lives in the ring. Ids are made untimed; an id comes round again
   only long after it left the ring. *)
let span_ring_churn () =
  let ids = Array.init 16_384 transid in
  let spans = Span.create (Engine.create ()) in
  let cycle i =
    let id = ids.(i land 16_383) in
    ignore (Span.start spans id);
    ignore (Span.finish spans id Span.Committed);
    Span.incr_phase2_msgs spans ids.((i - 100) land 16_383)
  in
  for i = 0 to 4_095 do
    cycle i
  done;
  each (fun i -> cycle (i + 4_096))

(* Selective-receive mailbox: enqueue 1k then drain FIFO. *)
let mailbox_fifo () =
  each (fun _ ->
      let mailbox = Tandem_os.Mailbox.create () in
      for i = 0 to 999 do
        Tandem_os.Mailbox.enqueue mailbox
          (Tandem_os.Message.oneway ~src:(pid i) ~dst:(pid 0)
             Tandem_os.Message.Ping)
      done;
      for _ = 0 to 999 do
        ignore (Tandem_os.Mailbox.receive_opt mailbox)
      done)

let btree_insert () =
  each (fun _ ->
      let tree = Btree.create (make_store ()) ~name:"B" ~degree:16 in
      for i = 0 to 999 do
        ignore (Btree.insert tree (Key.of_int i) "payload")
      done)

(* The same 1k rows through the ascending loader: the same blocks, built
   without a descent or a leaf copy per row. *)
let btree_bulk_load () =
  each (fun _ ->
      let tree = Btree.create (make_store ()) ~name:"B" ~degree:16 in
      Btree.bulk_load tree (fun add ->
          for i = 0 to 999 do
            add (Key.of_int i) "payload"
          done))

let btree_lookup () =
  let tree = make_tree 10_000 in
  each (fun i -> ignore (Btree.find tree (Key.of_int (i * 37 mod 10_000))))

(* An update finds the key in its leaf's packed keys and replaces only the
   payload array. *)
let btree_update () =
  let tree = make_tree 10_000 in
  each (fun i ->
      ignore (Btree.update tree (Key.of_int (i * 37 mod 10_000)) "updated"))

let btree_scan () =
  let tree = make_tree 10_000 in
  let lo = Key.of_int 4_000 and hi = Key.of_int 4_099 in
  each (fun _ -> ignore (Btree.range tree ~lo ~hi))

let lock_cycle () =
  let locks = make_locks () in
  let owners = Array.init 8 transid in
  each (fun i ->
      let owner = owners.(i land 7) in
      ignore
        (Tandem_lock.Lock_table.try_acquire locks ~owner
           (record_lock "F" (string_of_int i)));
      Tandem_lock.Lock_table.release_all locks ~owner)

let audit_append () =
  let trail = make_trail () in
  let image = trail_image "k" and transid = transid 1 in
  each (fun _ -> ignore (Tandem_audit.Audit_trail.append trail ~transid image))

let record_decode () =
  let payload =
    Record.encode [ ("balance", "1000"); ("branch", "SF"); ("status", "open") ]
  in
  each (fun _ -> ignore (Record.field payload "branch"))

(* Whole simulated transactions per wall-clock second: the cost of the
   simulator itself, bank boot included. *)
let committed_tx () =
  each (fun _ ->
      let bank = make_bank ~seed:7 ~terminals:1 ~accounts:50 () in
      queue_debit_credit bank ~per_terminal:1;
      Tandem_encompass.Cluster.run bank.cluster)

(* ------------------------------------------------------------------ *)

(* A row: [ops] operations at full size; [prepare] builds the fixture,
   untimed, and returns the timed body, which runs a given number of
   operations and returns how many it ran. *)
type benchmark = { name : string; ops : int; prepare : unit -> int -> int }

let benchmarks =
  let row name ops prepare = { name; ops; prepare } in
  let engine name ops run = row name ops (fun () -> run) in
  [
    engine "engine/schedule-fire storm" 4_000_000 schedule_fire_storm;
    engine "engine/rpc-style cancel storm" 1_000_000 cancel_storm;
    engine "engine/fiber sleep churn" 2_000_000 fiber_sleep_churn;
    engine "engine/mailbox dispatch" 1_000_000 mailbox_dispatch;
    engine "metrics/labeled counter bump" 4_000_000 labeled_counter_bump;
    row "hotpath/audit backout scan (10k-record trail)" 200_000 backout_scan;
    row "hotpath/audit settled records_for (10k-record trail)" 5_000
      settled_scan;
    row "hotpath/audit append (2k-record file fill)" 1_000 audit_append_fill;
    row "hotpath/lock release_all (1k locks, 300k-lock table)" 1_000
      lock_release_scaling;
    row "hotpath/tmp safe-delivery enqueue (1k entries)" 4_000 safe_queue_fill;
    row "hotpath/mailbox fifo (1k enqueue+drain)" 10_000 mailbox_fifo;
    row "hotpath/monitor record + disposition_of (8k participant-order transids)"
      327_680 monitor_participant;
    row "hotpath/span finish + late emit (full 4k ring)" 1_000_000
      span_ring_churn;
    row "core/btree insert (1k sequential)" 1_000 btree_insert;
    row "core/btree bulk load (1k sequential)" 10_000 btree_bulk_load;
    row "core/btree point lookup (10k tree)" 1_000_000 btree_lookup;
    row "core/btree update (10k tree)" 1_000_000 btree_update;
    row "core/btree 100-record range scan" 100_000 btree_scan;
    row "core/lock acquire + release_all" 1_000_000 lock_cycle;
    row "core/audit trail append" 1_000_000 audit_append;
    row "core/record field decode" 1_000_000 record_decode;
    row "core/one simulated debit-credit (full stack)" 2_000 committed_tx;
  ]

type row = { r_name : string; r_ops : int; r_elapsed : float }

let rate row = float_of_int row.r_ops /. row.r_elapsed

(* Fixture untimed, then a compacted heap, then the fixed work under the
   timer. The fixture dies with the row, so no row runs beside another's
   live data. *)
let measure ~quick { name; ops; prepare } =
  let body = prepare () in
  Gc.compact ();
  let ran, elapsed = time (fun () -> body (if quick then ops / 20 else ops)) in
  { r_name = name; r_ops = ran; r_elapsed = elapsed }

let committed_path = "BENCH_engine.json"

(* A quick run times the table this many times and keeps each row's
   best. *)
let quick_repetitions = 3

(* The committed ops/sec of [committed_path], by benchmark name. *)
let committed_rates () =
  let fail why = failwith (Printf.sprintf "engine: %s: %s" committed_path why) in
  let json =
    match In_channel.with_open_bin committed_path In_channel.input_all with
    | text -> (
        match Json.of_string text with Ok json -> json | Error why -> fail why)
    | exception Sys_error why -> failwith ("engine: " ^ why)
  in
  let field name to_value row = Option.bind (Json.member name row) to_value in
  match field "benchmarks" Json.to_list json with
  | None -> fail "no benchmarks list"
  | Some rows ->
      List.map
        (fun row ->
          match
            ( field "name" Json.to_string_value row,
              field "ops_per_sec" Json.to_float row )
          with
          | Some name, Some rate -> (name, rate)
          | _ -> fail "a benchmark lacks name or ops_per_sec")
        rows

(* The floor is a third of the committed rate: slack for runner variance,
   so the guard catches order-of-magnitude regressions (a reintroduced
   closure-compare heap, a quadratic hot path), not noise. [rows] holds
   each row's best quick repetition: a burst of load on a shared host slows
   one repetition, not all three. *)
let check_against_committed rows =
  let committed = committed_rates () in
  let names = List.sort String.compare in
  require
    (names (List.map fst committed) = names (List.map (fun r -> r.r_name) rows))
    "engine: measured benchmarks differ from the committed ones";
  List.iter
    (fun row ->
      let committed_rate = List.assoc row.r_name committed in
      require
        (rate row >= committed_rate /. 3.0)
        "engine: %s at %.0f ops/sec, below a third of the committed %.0f"
        row.r_name (rate row) committed_rate)
    rows

let write_json rows =
  let entries =
    List.map
      (fun row ->
        Json.Obj
          [
            ("name", Json.String row.r_name);
            ("ops", Json.Int row.r_ops);
            ("elapsed_s", Json.Float row.r_elapsed);
            ("ops_per_sec", Json.Float (rate row));
          ])
      rows
  in
  Bench_util.write_json ~what:"engine results" committed_path
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-engine/2");
         ("host", host_json ());
         ("benchmarks", Json.List entries);
       ])

let run () =
  heading "ENGINE — wall-clock cost of the simulator's own code";
  claim
    "driving millions of simulated users makes the simulator's own event \
     hot path the bottleneck: heap dispatch, timer cancellation, the \
     indexed TMF structures and per-event instrumentation must run at \
     memory speed";
  let quick = quick_mode () in
  let rows =
    if not quick then List.map (measure ~quick) benchmarks
    else
      (* Interleaved: each repetition runs the whole table, so a burst of
         host load lands on different rows in each. *)
      let repetitions =
        List.init quick_repetitions (fun _ ->
            List.map (measure ~quick) benchmarks)
      in
      List.fold_left
        (List.map2 (fun best row -> if rate row > rate best then row else best))
        (List.hd repetitions) (List.tl repetitions)
  in
  print_table
    ~columns:[ "benchmark"; "ops"; "elapsed s"; "ops/sec"; "ns/op" ]
    (List.map
       (fun row ->
         [
           row.r_name;
           string_of_int row.r_ops;
           Printf.sprintf "%.3f" row.r_elapsed;
           Printf.sprintf "%.2e" (rate row);
           Printf.sprintf "%.0f" (1e9 /. rate row);
         ])
       rows);
  if quick then check_against_committed rows else write_json rows;
  let slowest_event =
    List.fold_left
      (fun slowest row ->
        if String.starts_with ~prefix:"engine/" row.r_name
           && rate row < rate slowest
        then row
        else slowest)
      (List.hd rows) rows
  in
  observed "the slowest event shape, %s, runs at %.2e events/sec on this host"
    slowest_event.r_name (rate slowest_event)
