(* The observability layer: JSON tree round-trips, histogram quantile
   accuracy, labeled-counter aggregation, the span registry's bookkeeping,
   and the per-transaction spans a full cluster produces — including the
   paper's E7 message counts for a transaction touching three nodes. *)

open Tandem_sim
open Tandem_db
open Tandem_encompass

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json *)

let roundtrip ?pretty j =
  match Json.of_string (Json.to_string ?pretty j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "parse error: %s" e

let sample_doc =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 0.1);
      ("whole", Json.Float 2.0);
      ("s", Json.String "say \"hi\"\n\ttab \\ slash");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List [ Json.Int 1; Json.Obj [ ("k", Json.String "v") ]; Json.Null ]
      );
    ]

let test_json_roundtrip () =
  check_bool "compact round-trip" true (roundtrip sample_doc = sample_doc);
  check_bool "pretty round-trip" true
    (roundtrip ~pretty:true sample_doc = sample_doc)

let test_json_rejects_garbage () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "1 2";
  bad "nul";
  bad "\"unterminated"

let test_json_nonfinite_floats () =
  check_string "nan prints null" "null" (Json.to_string (Json.Float nan));
  check_string "inf prints null" "null" (Json.to_string (Json.Float infinity))

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"json: finite floats round-trip exactly" ~count:500
    QCheck.(float_range (-1e15) 1e15)
    (fun x ->
      match roundtrip (Json.Float x) with
      | Json.Float y -> y = x
      | Json.Int y -> float_of_int y = x
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Histograms *)

let bounds = [| 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 75.0 |]

(* Index of the bucket a value falls in; [Array.length bounds] is the
   overflow bucket. *)
let bucket_index v =
  let rec go i =
    if i >= Array.length bounds then i
    else if v <= bounds.(i) then i
    else go (i + 1)
  in
  go 0

(* Exact nearest-rank quantile of a non-empty sample. *)
let exact_quantile values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let filled values =
  let m = Metrics.create () in
  let h = Metrics.histogram ~bounds m "h" in
  List.iter (Metrics.observe_histogram h) values;
  h

let test_histogram_empty () =
  let h = filled [] in
  check_int "count" 0 (Metrics.histogram_count h);
  check_bool "quantile nan" true (Float.is_nan (Metrics.histogram_quantile h 0.5));
  check_bool "mean nan" true (Float.is_nan (Metrics.histogram_mean h))

let test_histogram_exact_stats () =
  let values = [ 0.5; 1.5; 3.0; 3.0; 40.0; 120.0 ] in
  let h = filled values in
  check_int "count" 6 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 168.0 (Metrics.histogram_sum h);
  Alcotest.(check (float 1e-9)) "mean" 28.0 (Metrics.histogram_mean h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Metrics.histogram_min h);
  Alcotest.(check (float 1e-9)) "max" 120.0 (Metrics.histogram_max h);
  (* The single overflow observation is the max: the estimate must clamp to
     it rather than extrapolate. *)
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 120.0
    (Metrics.histogram_quantile h 1.0);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Metrics.histogram_buckets h) in
  check_int "buckets account for every observation" 6 total

let test_histogram_single_value () =
  let h = filled [ 7.0; 7.0; 7.0 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f collapses to the value" q)
        7.0
        (Metrics.histogram_quantile h q))
    [ 0.01; 0.5; 0.99 ]

let prop_histogram_quantile_same_bucket =
  (* The documented accuracy contract: the interpolated estimate lands in
     the same bucket as the exact nearest-rank quantile, so its error is
     bounded by one bucket width. *)
  QCheck.Test.make
    ~name:"histogram: quantile estimate shares the exact quantile's bucket"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (float_range 0.01 100.0))
        (float_range 0.01 1.0))
    (fun (values, q) ->
      let h = filled values in
      let exact = exact_quantile values q in
      let estimate = Metrics.histogram_quantile h q in
      if Float.is_nan estimate then QCheck.Test.fail_report "nan estimate";
      if bucket_index estimate <> bucket_index exact then
        QCheck.Test.fail_reportf
          "estimate %.4f (bucket %d) vs exact %.4f (bucket %d), n=%d q=%.3f"
          estimate (bucket_index estimate) exact (bucket_index exact)
          (List.length values) q;
      (* And it never leaves the observed range. *)
      estimate >= Metrics.histogram_min h -. 1e-9
      && estimate <= Metrics.histogram_max h +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Labeled counters *)

let test_labeled_name_canonical () =
  check_string "labels sorted by key" "tx{cpu=2,node=1}"
    (Metrics.labeled_name "tx" [ ("node", "1"); ("cpu", "2") ]);
  check_string "no labels is the bare name" "tx" (Metrics.labeled_name "tx" [])

let test_labeled_counter_aggregation () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "tx") 3;
  Metrics.add (Metrics.counter_with m "tx" ~labels:[ ("node", "1") ]) 2;
  Metrics.add (Metrics.counter_with m "tx" ~labels:[ ("node", "2") ]) 5;
  (* A distinct metric whose name shares the prefix must not be counted. *)
  Metrics.add (Metrics.counter m "tx_retries") 100;
  check_int "labeled series readable under canonical name" 2
    (Metrics.read_counter m "tx{node=1}");
  check_int "sum = bare + all labeled variants" 10 (Metrics.sum_counters m "tx");
  check_int "label order irrelevant" 7
    (Metrics.counter_value
       (Metrics.counter_with m "tx" ~labels:[ ("node", "2") ])
    + Metrics.counter_value (Metrics.counter m "tx{node=1}"))

(* ------------------------------------------------------------------ *)
(* Registry JSON text *)

(* The bench digests in BENCH_results.json hash this text: a change to
   the export's layout shows here before it shows as seventeen changed
   digests. A sample lists its values in ascending order whether it holds
   counts of small integers ("batch_size") or floats ("latency_ms"). *)
let test_metrics_json_text () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "commits") 17;
  List.iter (Metrics.observe (Metrics.sample m "latency_ms")) [ 2.5; 1.5 ];
  List.iter (Metrics.observe (Metrics.sample m "batch_size")) [ 3.0; 1.0; 3.0 ];
  List.iter
    (Metrics.observe_histogram
       (Metrics.histogram ~bounds:[| 1.0; 10.0 |] m "latency_ms.hist"))
    [ 0.5; 2.5; 40.0 ];
  Alcotest.(check string)
    "exact text"
    ({|{"batch_size":{"type":"sample","values":[1.0,3.0,3.0]},|}
    ^ {|"commits":{"type":"counter","value":17},|}
    ^ {|"latency_ms":{"type":"sample","values":[1.5,2.5]},|}
    ^ {|"latency_ms.hist":{"type":"histogram","bounds":[1.0,10.0],|}
    ^ {|"buckets":[1,1,1],"count":3,"sum":43.0,"min":0.5,"max":40.0}}|})
    (Json.to_string (Metrics.to_json m))

(* ------------------------------------------------------------------ *)
(* Span registry bookkeeping *)

let test_span_lifecycle () =
  let engine = Engine.create ~seed:1 () in
  let t = Span.create engine in
  let tx1 = Transid.make ~home:1 ~cpu:0 ~seq:1 in
  let unknown = Transid.make ~home:9 ~cpu:9 ~seq:9 in
  let s = Span.start t tx1 in
  check_string "span id" "1.0.1" s.Span.span_id;
  check_bool "start is idempotent" true (Span.start t tx1 == s);
  Span.add_messages t tx1 2;
  Span.incr_prepares t tx1;
  Span.mark_phase1 t tx1;
  Span.mark_phase2 t tx1;
  check_int "active" 1 (Span.active_count t);
  (match Span.finish t tx1 Span.Committed with
  | Some s' -> check_bool "finish returns the span" true (s' == s)
  | None -> Alcotest.fail "finish returned None");
  check_int "moved to finished ring" 1 (Span.finished_count t);
  check_int "no longer active" 0 (Span.active_count t);
  (* First verdict wins: a late abort cannot overwrite the commit. *)
  check_bool "second resolution rejected" true
    (Span.finish t tx1 (Span.Aborted "late") = None);
  (match Span.find t tx1 with
  | Some s' -> check_string "outcome intact" "committed" (Span.outcome_to_string s'.Span.outcome)
  | None -> Alcotest.fail "finished span not found");
  (* Events against unknown ids disappear without creating state. *)
  Span.incr_lock_waits t unknown;
  Span.add_messages t unknown 5;
  check_bool "unknown id not materialized" true (Span.find t unknown = None);
  check_int "started total" 1 (Span.started_total t);
  check_int "committed total" 1 (Span.committed_total t)

let test_span_ring_bounded () =
  let engine = Engine.create ~seed:1 () in
  let t = Span.create ~capacity:4 engine in
  for i = 1 to 10 do
    let id = Transid.make ~home:1 ~cpu:0 ~seq:i in
    ignore (Span.start t id);
    ignore (Span.finish t id (Span.Aborted "why not"))
  done;
  check_bool "ring stays within capacity" true (Span.finished_count t <= 4);
  check_int "totals keep counting past the trim" 10 (Span.aborted_total t);
  (* The survivors are the newest. *)
  check_bool "newest span retained" true (Span.find t (Transid.make ~home:1 ~cpu:0 ~seq:10) <> None)

(* ------------------------------------------------------------------ *)
(* Full stack: the paper's three-node transaction (E7's k=3 case) *)

let accounts_per_node = 50

let touch_program =
  Screen_program.transaction ~name:"k-touch" (fun verbs input ->
      verbs.Screen_program.send ~server_class:"KTOUCH" input)

(* Update one fixed account in each of the first k node partitions. *)
let touch_handler ctx body =
  match Record.int_field body "k" with
  | None -> Error (Server.Rejected "malformed")
  | Some k ->
      let rec touch i =
        if i >= k then Ok "done"
        else
          let key = Key.of_int ((i * accounts_per_node) + 7) in
          match
            File_client.update ctx.Server.files ~self:ctx.Server.server_process
              ?transid:ctx.Server.transid ~file:"ACCOUNT" key
              (Record.encode [ ("balance", "7") ])
          with
          | Ok () -> touch (i + 1)
          | Error e -> Error (Server.map_file_error e)
      in
      touch 0

let chain_cluster ~nodes =
  let cluster = Cluster.create ~seed:23 () in
  for id = 1 to nodes do
    ignore (Cluster.add_node cluster ~id ~cpus:4)
  done;
  for id = 1 to nodes - 1 do
    Cluster.link cluster id (id + 1)
  done;
  let partitions =
    List.init nodes (fun i ->
        {
          Schema.low_key =
            (if i = 0 then Key.min_key else Key.of_int (i * accounts_per_node));
          node = i + 1;
          volume = Printf.sprintf "$D%d" (i + 1);
        })
  in
  List.iter
    (fun p ->
      ignore
        (Cluster.add_volume cluster ~node:p.Schema.node ~name:p.Schema.volume
           ~primary_cpu:2 ~backup_cpu:3 ()))
    partitions;
  Cluster.add_file cluster
    (Schema.define ~name:"ACCOUNT" ~organization:Schema.Key_sequenced ~degree:8
       ~partitions ());
  Cluster.load_file cluster ~file:"ACCOUNT"
    (List.init (nodes * accounts_per_node) (fun i ->
         (Key.of_int i, Record.encode [ ("balance", "1000") ])));
  ignore (Cluster.add_server_class cluster ~node:1 ~name:"KTOUCH" ~count:1 touch_handler);
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:1
      ~program:touch_program ()
  in
  (cluster, tcp)

let test_distributed_span_counts () =
  (* A transaction touching k = 3 of the chain's nodes: the abbreviated
     protocol at home plus, per extra node, exactly one critical-response
     prepare and one safe-delivery phase-two message (the paper's node 1 ->
     node 2 -> node 3 example). *)
  let cluster, tcp = chain_cluster ~nodes:3 in
  Tcp.submit tcp ~terminal:0 (Record.encode [ ("k", "3") ]);
  Cluster.run ~until:(Sim_time.minutes 2) cluster;
  check_int "committed" 1 (Tcp.completed tcp);
  let spans = Cluster.spans cluster in
  check_int "one span started" 1 (Span.started_total spans);
  check_int "span finished" 1 (Span.finished_count spans);
  match Span.finished spans with
  | [ s ] ->
      check_string "outcome" "committed" (Span.outcome_to_string s.Span.outcome);
      check_int "prepares = k - 1" 2 s.Span.prepares;
      check_int "phase-two messages = k - 1" 2 s.Span.phase2_msgs;
      check_int "remote nodes = k - 1" 2 s.Span.remote_nodes;
      check_bool "phase one stamped" true (s.Span.phase1_at <> None);
      check_bool "phase two stamped" true (s.Span.phase2_at <> None);
      check_bool "no backout on the commit path" true (s.Span.backout_at = None);
      check_bool "commit forces the audit trail" true (s.Span.forced_writes >= 1);
      check_bool "remote work carried messages" true (s.Span.messages >= 2);
      (match Span.duration s with
      | Some d -> check_bool "positive duration" true (d > 0)
      | None -> Alcotest.fail "finished span has no duration");
      (* The commit-latency histogram saw exactly this transaction. *)
      let h = Metrics.read_histogram (Cluster.metrics cluster) "tmf.commit_latency_ms" in
      check_int "commit latency observed once" 1 (Metrics.histogram_count h)
  | spans -> Alcotest.failf "expected one finished span, got %d" (List.length spans)

let test_abort_span_backout () =
  let program =
    Screen_program.make ~name:"abortive" (fun verbs input ->
        verbs.Screen_program.begin_transaction ();
        let _ = verbs.Screen_program.send ~server_class:"KTOUCH" input in
        verbs.Screen_program.abort_transaction ~reason:"user cancelled";
        "unreachable")
  in
  let cluster = Cluster.create ~seed:29 () in
  ignore (Cluster.add_node cluster ~id:1 ~cpus:4);
  ignore
    (Cluster.add_volume cluster ~node:1 ~name:"$D1" ~primary_cpu:2 ~backup_cpu:3 ());
  Cluster.add_file cluster
    (Schema.define ~name:"ACCOUNT" ~organization:Schema.Key_sequenced ~degree:8
       ~partitions:
         [ { Schema.low_key = Key.min_key; node = 1; volume = "$D1" } ]
       ());
  Cluster.load_file cluster ~file:"ACCOUNT"
    (List.init accounts_per_node (fun i ->
         (Key.of_int i, Record.encode [ ("balance", "1000") ])));
  ignore (Cluster.add_server_class cluster ~node:1 ~name:"KTOUCH" ~count:1 touch_handler);
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:1 ~program ()
  in
  Tcp.submit tcp ~terminal:0 (Record.encode [ ("k", "1") ]);
  Cluster.run ~until:(Sim_time.minutes 2) cluster;
  let spans = Cluster.spans cluster in
  check_int "span aborted" 1 (Span.aborted_total spans);
  (match Span.finished spans with
  | [ s ] ->
      check_string "outcome carries the reason" "aborted: user cancelled"
        (Span.outcome_to_string s.Span.outcome);
      check_bool "backout stamped" true (s.Span.backout_at <> None);
      check_bool "backout applied before-images" true (s.Span.images_undone >= 1)
  | spans -> Alcotest.failf "expected one finished span, got %d" (List.length spans));
  match Span.abort_reasons spans with
  | (reason, 1) :: _ ->
      check_string "reason census" "user cancelled" reason
  | _ -> Alcotest.fail "abort reason not recorded"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "observability"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects_garbage;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "exact statistics" `Quick test_histogram_exact_stats;
          Alcotest.test_case "single value" `Quick test_histogram_single_value;
          QCheck_alcotest.to_alcotest prop_histogram_quantile_same_bucket;
        ] );
      ( "labeled counters",
        [
          Alcotest.test_case "canonical name" `Quick test_labeled_name_canonical;
          Alcotest.test_case "aggregation" `Quick test_labeled_counter_aggregation;
        ] );
      ( "json export",
        [ Alcotest.test_case "registry text pinned" `Quick test_metrics_json_text ] );
      ( "spans",
        [
          Alcotest.test_case "lifecycle" `Quick test_span_lifecycle;
          Alcotest.test_case "finished ring bounded" `Quick test_span_ring_bounded;
          Alcotest.test_case "three-node commit counts" `Quick
            test_distributed_span_counts;
          Alcotest.test_case "abort records backout" `Quick test_abort_span_backout;
        ] );
    ]
