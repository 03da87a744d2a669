(* M-series — Bechamel micro-benchmarks of the core data paths (wall-clock
   cost of the simulation structures themselves, not simulated time). *)

open Bechamel
open Toolkit
open Tandem_sim
open Tandem_db

let make_store () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$B"
      ~access_time:(Sim_time.milliseconds 25)
  in
  let store = Store.create volume ~cache_capacity:1024 in
  Store.set_charging store false;
  store

let btree_insert =
  Test.make ~name:"btree insert (1k sequential)" (Staged.stage (fun () ->
      let tree = Btree.create (make_store ()) ~name:"B" ~degree:16 in
      for i = 0 to 999 do
        ignore (Btree.insert tree (Key.of_int i) "payload")
      done))

let btree_lookup =
  let tree = Btree.create (make_store ()) ~name:"B" ~degree:16 in
  for i = 0 to 9_999 do
    ignore (Btree.insert tree (Key.of_int i) "payload")
  done;
  let counter = ref 0 in
  Test.make ~name:"btree point lookup (10k tree)" (Staged.stage (fun () ->
      incr counter;
      ignore (Btree.find tree (Key.of_int (!counter * 37 mod 10_000)))))

let btree_scan =
  let tree = Btree.create (make_store ()) ~name:"B" ~degree:16 in
  for i = 0 to 9_999 do
    ignore (Btree.insert tree (Key.of_int i) "payload")
  done;
  Test.make ~name:"btree 100-record range scan" (Staged.stage (fun () ->
      ignore (Btree.range tree ~lo:(Key.of_int 4_000) ~hi:(Key.of_int 4_099))))

let lock_cycle =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let locks = Tandem_lock.Lock_table.create engine ~metrics ~name:"$B" in
  let counter = ref 0 in
  Test.make ~name:"lock acquire + release_all" (Staged.stage (fun () ->
      incr counter;
      let owner = string_of_int (!counter land 7) in
      ignore
        (Tandem_lock.Lock_table.try_acquire locks ~owner
           (Tandem_lock.Lock_table.Record_lock
              { file = "F"; key = string_of_int !counter }));
      Tandem_lock.Lock_table.release_all locks ~owner))

let audit_append =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$B"
      ~access_time:(Sim_time.milliseconds 25)
  in
  let trail = Tandem_audit.Audit_trail.create volume ~name:"$B" () in
  Test.make ~name:"audit trail append" (Staged.stage (fun () ->
      ignore
        (Tandem_audit.Audit_trail.append trail ~transid:"1.0.1"
           {
             Tandem_audit.Audit_record.volume = "$B";
             file = "F";
             key = "k";
             before = Some "old";
             after = Some "new";
           })))

let record_codec =
  let payload =
    Record.encode [ ("balance", "1000"); ("branch", "SF"); ("status", "open") ]
  in
  Test.make ~name:"record field decode" (Staged.stage (fun () ->
      ignore (Record.field payload "branch")))

(* ------------------------------------------------------------------ *)
(* Hot-path scaling variants: the structures the TMF hot paths lean on, at
   sizes where list-backed implementations go quadratic. Their estimates
   feed BENCH_hotpath.json. *)

let make_trail ?records_per_file () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$B"
      ~access_time:(Sim_time.milliseconds 25)
  in
  Tandem_audit.Audit_trail.create volume ~name:"$B" ?records_per_file ()

let trail_image key =
  {
    Tandem_audit.Audit_record.volume = "$B";
    file = "F";
    key;
    before = Some "old";
    after = Some "new";
  }

let backout_scan =
  (* Backout's read pattern: all records of ONE transaction out of a
     10k-record trail shared by 16 concurrent transactions. *)
  let trail = make_trail () in
  for i = 0 to 9_999 do
    ignore
      (Tandem_audit.Audit_trail.append trail
         ~transid:(Printf.sprintf "1.0.%d" (i mod 16))
         (trail_image (string_of_int i)))
  done;
  Test.make ~name:"audit backout scan (10k-record trail)"
    (Staged.stage (fun () ->
         ignore (Tandem_audit.Audit_trail.records_for trail ~transid:"1.0.7")))

let audit_append_fill =
  (* The cumulative append cost of filling one large audit file (trails
     configured for few rollovers see multi-thousand-record files; a
     per-append length scan makes the fill quadratic). *)
  let image = trail_image "k" in
  Test.make ~name:"audit append (2k-record file fill)"
    (Staged.stage (fun () ->
         let trail = make_trail ~records_per_file:2_000 () in
         for _ = 0 to 1_999 do
           ignore (Tandem_audit.Audit_trail.append trail ~transid:"1.0.1" image)
         done))

let lock_release_scaling =
  (* Phase two's unlock: release ONE transaction's 1k locks out of a table
     holding 300k other-owner locks across 150 files (a busy volume's
     steady state). Keys are precomputed so the staged cost is the table's,
     not Printf's. *)
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let locks = Tandem_lock.Lock_table.create engine ~metrics ~name:"$B" in
  for file = 0 to 149 do
    for k = 0 to 1_999 do
      ignore
        (Tandem_lock.Lock_table.try_acquire locks
           ~owner:(Printf.sprintf "bg%d" (k mod 10))
           (Tandem_lock.Lock_table.Record_lock
              { file = Printf.sprintf "F%d" file; key = Printf.sprintf "%d" k }))
    done
  done;
  let wanted =
    Array.init 1_000 (fun k ->
        Tandem_lock.Lock_table.Record_lock
          { file = "F0"; key = Printf.sprintf "b%d" k })
  in
  Test.make ~name:"lock release_all (1k locks, 300k-lock table)"
    (Staged.stage (fun () ->
         Array.iter
           (fun resource ->
             ignore
               (Tandem_lock.Lock_table.try_acquire locks ~owner:"bench"
                  resource))
           wanted;
         Tandem_lock.Lock_table.release_all locks ~owner:"bench"))

let safe_queue_fill =
  (* The TMP safe-delivery queue: enqueue 1k phase-two messages (the engine
     never runs, so nothing is delivered — this is the pure enqueue path a
     partition exercises). *)
  Test.make ~name:"tmp safe-delivery enqueue (1k entries)"
    (Staged.stage (fun () ->
         let net = Tandem_os.Net.create () in
         let node = Tandem_os.Net.add_node net ~id:1 ~cpus:2 in
         let volume =
           Tandem_disk.Volume.create
             (Tandem_os.Net.engine net)
             ~metrics:(Tandem_os.Net.metrics net)
             ~name:"$M" ~access_time:(Sim_time.milliseconds 25)
         in
         let state =
           Tmf.Tmf_state.make_node_state ~node ~monitor_volume:volume ()
         in
         let tmp = Tmf.Tmp.spawn ~net ~state ~primary_cpu:0 ~backup_cpu:1 in
         for i = 0 to 999 do
           Tmf.Tmp.safe_deliver tmp 2 (Tmf.Tmp.Phase2_commit (string_of_int i))
         done))

let mailbox_fifo =
  (* Selective-receive mailbox: enqueue 1k then drain FIFO. *)
  let pid serial = { Tandem_os.Ids.node = 1; cpu = 0; serial } in
  Test.make ~name:"mailbox fifo (1k enqueue+drain)" (Staged.stage (fun () ->
      let mailbox = Tandem_os.Mailbox.create () in
      for i = 0 to 999 do
        Tandem_os.Mailbox.enqueue mailbox
          (Tandem_os.Message.oneway ~src:(pid i) ~dst:(pid 0)
             Tandem_os.Message.Ping)
      done;
      for _ = 0 to 999 do
        ignore (Tandem_os.Mailbox.receive_opt mailbox)
      done))

let committed_tx =
  (* Whole simulated transactions per wall-clock unit: the cost of the
     simulator itself. *)
  Test.make ~name:"one simulated debit-credit (full stack)" (Staged.stage (fun () ->
      let bank = Bench_util.make_bank ~seed:7 ~terminals:1 ~accounts:50 () in
      Bench_util.queue_debit_credit bank ~per_terminal:1;
      Tandem_encompass.Cluster.run bank.cluster))

(* Quick mode takes one tiny sample per benchmark — enough to prove the
   harness still builds and runs. *)
let estimates tests =
  let quick = Bench_util.quick_mode () in
  let benchmark test =
    let quota = Time.second (if quick then 0.001 else 0.25) in
    Benchmark.all
      (Benchmark.cfg ~limit:(if quick then 1 else 500) ~quota ~kde:None ())
      Instance.[ monotonic_clock ]
      test
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock (benchmark tests)
  in
  Hashtbl.fold
    (fun name result acc ->
      match Analyze.OLS.estimates result with
      | Some [ estimate ] -> (name, Some estimate) :: acc
      | _ -> (name, None) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_estimates rows =
  List.iter
    (fun (name, estimate) ->
      match estimate with
      | Some ns -> Printf.printf "%-55s %12.1f ns/run\n" name ns
      | None -> Printf.printf "%-55s (no estimate)\n" name)
    rows

(* ------------------------------------------------------------------ *)
(* BENCH_hotpath.json: the hot-path group's estimates, stamped with the
   host they were measured on; every full (non-quick) micro run rewrites
   it. Schema documented in docs/PERFORMANCE.md. *)

let write_hotpath_json rows =
  let entries =
    List.map
      (fun (name, estimate) ->
        Tandem_sim.Json.Obj
          [
            ("name", Tandem_sim.Json.String name);
            ( "current_ns",
              match estimate with
              | Some ns -> Tandem_sim.Json.Float ns
              | None -> Tandem_sim.Json.Null );
          ])
      rows
  in
  Bench_util.write_bench ~what:"hot-path results" "BENCH_hotpath.json"
    (Tandem_sim.Json.Obj
       [
         ("schema", Tandem_sim.Json.String "tandem-bench-hotpath/1");
         ("host", Bench_util.host_json ());
         ("benchmarks", Tandem_sim.Json.List entries);
       ])

let run () =
  Bench_util.heading "M — micro-benchmarks (wall-clock, Bechamel)";
  let core =
    Test.make_grouped ~name:"core"
      [
        btree_insert;
        btree_lookup;
        btree_scan;
        lock_cycle;
        audit_append;
        record_codec;
        committed_tx;
      ]
  in
  let hotpath =
    Test.make_grouped ~name:"hotpath"
      [
        backout_scan;
        audit_append_fill;
        lock_release_scaling;
        safe_queue_fill;
        mailbox_fifo;
      ]
  in
  let core_rows = estimates core in
  let hotpath_rows = estimates hotpath in
  print_estimates (core_rows @ hotpath_rows);
  write_hotpath_json hotpath_rows
