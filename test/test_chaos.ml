(* The chaos framework's own contract: determinism (same seed ⇒
   byte-identical report, different seeds ⇒ different schedules), the
   invariant checker's teeth (a corrupted data base must fail), and the
   full quick matrix staying green. *)

open Tandem_chaos

let scenario name =
  match Scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_same_seed_identical () =
  List.iter
    (fun name ->
      let s = scenario name in
      let a = Scenario.run s ~seed:42 ~quick:true in
      let b = Scenario.run s ~seed:42 ~quick:true in
      Alcotest.(check string)
        (name ^ ": same seed, byte-identical fingerprint")
        (Scenario.fingerprint a) (Scenario.fingerprint b))
    [ "cpu-crash-restart"; "node-crash-rollforward"; "home-crash-phase2" ]

let test_different_seeds_differ () =
  List.iter
    (fun name ->
      let s = scenario name in
      let a = Scenario.run s ~seed:42 ~quick:true in
      let b = Scenario.run s ~seed:7 ~quick:true in
      if String.equal a.Scenario.schedule b.Scenario.schedule then
        Alcotest.failf "%s: seeds 42 and 7 drew the same fault schedule %S"
          name a.Scenario.schedule)
    [ "cpu-crash-restart"; "mirror-failure-revive" ]

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let test_fingerprint_carries_verdict () =
  let s = scenario "partition-heal" in
  let report = Scenario.run s ~seed:1981 ~quick:true in
  let fp = Scenario.fingerprint report in
  List.iter
    (fun needle ->
      if not (contains fp needle) then
        Alcotest.failf "fingerprint misses %S:\n%s" needle fp)
    [ "partition-heal"; "funds-conserved" ]

(* ------------------------------------------------------------------ *)
(* Determinism under parallelism: the contract extends across domains.
   The same scenario×seed tasks run serially and on 2/4/8-domain pools;
   fingerprints must stay byte-identical and the merged Metrics JSON (the
   observability payload, deliberately outside the fingerprint) must be
   identical too. On a small host the domains timeslice — the property is
   about interleaving, not physical parallelism. *)

let test_determinism_under_parallelism () =
  let tasks =
    List.concat_map
      (fun name -> List.map (fun seed -> (scenario name, seed)) [ 42; 7 ])
      [ "cpu-crash-restart"; "home-crash-phase2"; "mfg-partition-reconverge" ]
  in
  let run_all ~jobs =
    Tandem_sim.Domain_pool.map ~jobs
      (fun (s, seed) ->
        let report = Scenario.run s ~seed ~quick:true in
        ( Scenario.fingerprint report,
          Tandem_sim.Json.to_string report.Scenario.metrics ))
      tasks
  in
  let serial = run_all ~jobs:1 in
  List.iter
    (fun jobs ->
      List.iteri
        (fun i ((fp_serial, metrics_serial), (fp_pool, metrics_pool)) ->
          let s, seed = List.nth tasks i in
          Alcotest.(check string)
            (Printf.sprintf "%s seed=%d: fingerprint at jobs=%d"
               s.Scenario.name seed jobs)
            fp_serial fp_pool;
          Alcotest.(check string)
            (Printf.sprintf "%s seed=%d: merged metrics JSON at jobs=%d"
               s.Scenario.name seed jobs)
            metrics_serial metrics_pool)
        (List.combine serial (run_all ~jobs)))
    [ 2; 4; 8 ]

(* The merge itself: folding per-task registries in task order equals the
   registry a serial accumulation would build. *)
let test_metrics_merge_equals_accumulation () =
  let open Tandem_sim in
  let observe_task registry base =
    Metrics.add (Metrics.counter registry "task.count") base;
    Metrics.observe (Metrics.sample registry "task.sample")
      (float_of_int base);
    Metrics.observe_histogram
      (Metrics.histogram registry "task.hist")
      (float_of_int (base mod 40))
  in
  let bases = [ 3; 11; 27; 50 ] in
  let accumulated = Metrics.create () in
  List.iter (observe_task accumulated) bases;
  let merged = Metrics.create () in
  List.iter
    (fun base ->
      let per_task = Metrics.create () in
      observe_task per_task base;
      Metrics.merge ~into:merged per_task)
    bases;
  Alcotest.(check string)
    "merged JSON = accumulated JSON"
    (Json.to_string (Metrics.to_json accumulated))
    (Json.to_string (Metrics.to_json merged))

(* ------------------------------------------------------------------ *)
(* The checker must actually be able to fail. *)

let test_checker_detects_corruption () =
  let bank = Harness.build_bank ~seed:5 ~quick:true () in
  let cluster = bank.Harness.cluster in
  Harness.drain cluster;
  let clean = Harness.check_bank bank in
  if not clean.Tandem_chaos.Checker.passed then
    Alcotest.failf "fault-free run must pass:\n%s"
      (Checker.verdict_to_string clean);
  (* Slip an unaudited row into ACCOUNT behind TMF's back: funds appear
     from nowhere, which is exactly what funds-conserved exists to catch. *)
  let dp = Tandem_encompass.Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  let store = Tandem_encompass.Discprocess.store dp in
  Tandem_db.Store.set_charging store false;
  (match Tandem_encompass.Discprocess.file dp "ACCOUNT" with
  | None -> Alcotest.fail "no ACCOUNT file"
  | Some file -> (
      match
        Tandem_db.File.insert file
          (Tandem_db.Key.of_int 999999)
          (Tandem_db.Record.encode [ ("balance", "777") ])
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "corrupting insert refused"));
  Tandem_db.Store.set_charging store true;
  let verdict = Harness.check_bank bank in
  if verdict.Tandem_chaos.Checker.passed then
    Alcotest.fail "checker passed a corrupted data base";
  let funds =
    List.find
      (fun c -> c.Tandem_chaos.Checker.name = "funds-conserved")
      verdict.Tandem_chaos.Checker.checks
  in
  if funds.Tandem_chaos.Checker.passed then
    Alcotest.fail "funds-conserved missed injected funds"

(* ------------------------------------------------------------------ *)
(* The whole quick matrix, every scenario at one seed. *)

let test_quick_matrix_green () =
  let only = Sys.getenv_opt "CHAOS_ONLY" in
  List.iter
    (fun s ->
      match only with
      | Some name when s.Scenario.name <> name -> ()
      | _ ->
      let report = Scenario.run s ~seed:42 ~quick:true in
      if not (Scenario.passed report) then
        Alcotest.failf "%s seed=42 failed:\n%s" s.Scenario.name
          (Checker.verdict_to_string report.Scenario.verdict))
    Scenarios.all

(* ------------------------------------------------------------------ *)
(* Pinned fingerprints: a change meant to keep behaviour must leave every
   quick-matrix run (all scenarios at seeds 42, 1981 and 7, as
   [tandem chaos --quick] runs them) byte-identical. The table holds the MD5
   of each fingerprint; on a mismatch the test prints the actual table, to
   paste here only when the change is meant to move it. *)

let pinned_fingerprints =
  [
    ("cpu-crash-restart", 42, "36ec738527e019ba41cd240a6a25580a");
    ("cpu-crash-restart", 1981, "b0708b0b3b754d4c7077b58193ed6cba");
    ("cpu-crash-restart", 7, "760f0ada5e5054879790e7bed1a59d23");
    ("dp-takeover", 42, "05089dab907b6c98919b845453d7c0bd");
    ("dp-takeover", 1981, "5f871f94f096edf7ce1532d8b485817f");
    ("dp-takeover", 7, "a814ae96e28ee1c70ea92f7668e8f0ff");
    ("tcp-takeover", 42, "3da758c9bc8efd0439c2095a03badd40");
    ("tcp-takeover", 1981, "f605acc7e91ba4b2294b164bf370146e");
    ("tcp-takeover", 7, "6f76cd599b1c9d313a2390fce6bd47b0");
    ("mirror-failure-revive", 42, "765d6ca6e7efeacb0e6c8699fe2d96f9");
    ("mirror-failure-revive", 1981, "454715678140996ff1124d68e32a2cd0");
    ("mirror-failure-revive", 7, "4957873e3df25fa597e4293da9873bc8");
    ("controller-bus-flap", 42, "60c0f20b0557aeadac7b2adeda46beb1");
    ("controller-bus-flap", 1981, "3cde52c40ec8aad6c29a4a2752199a61");
    ("controller-bus-flap", 7, "80c7d48c5b40b302abe65f0d40cd8228");
    ("partition-heal", 42, "9653d6e1fb88414a7411a3f1a38aee47");
    ("partition-heal", 1981, "33e54bb5e39c8262cccb0112a64d8077");
    ("partition-heal", 7, "bc79a4246fbccd78337c7d1ff61d995d");
    ("message-delay-loss", 42, "aff7c1c66a4857cc81efe403342c1c50");
    ("message-delay-loss", 1981, "23ee699698b0ee0d630df928a414d0f6");
    ("message-delay-loss", 7, "dcfa00e6b7230527c0b952449b966c66");
    ("home-crash-phase2", 42, "8393a9e5f2366f0e9ca0594b2512c4d7");
    ("home-crash-phase2", 1981, "65f7101bf99c216bdd38cc81f7f390bf");
    ("home-crash-phase2", 7, "1805fc9bcfcaf5bf1a08897025a44397");
    ("node-crash-rollforward", 42, "1f5290c432cefc9d3f7721b709a2d38a");
    ("node-crash-rollforward", 1981, "7fd049ccad75009f56a504162e3bd426");
    ("node-crash-rollforward", 7, "dcf52c819ffa0cafc096b8c7846b8d64");
    ("recovery-storm", 42, "805000bfc32581975e92113655efce75");
    ("recovery-storm", 1981, "a29817fec5ef648d8f2e925d5baff177");
    ("recovery-storm", 7, "0ecf19116276821989425743f141aa59");
    ("mfg-partition-reconverge", 42, "c5a9f5707d0bd1e5cab628f12d63611a");
    ("mfg-partition-reconverge", 1981, "7094a69e613e1cf36252b25aa15832b2");
    ("mfg-partition-reconverge", 7, "286d2ea16fb670a204b0e2937b96d30f");
  ]

let test_fingerprints_pinned () =
  let actual =
    List.concat_map
      (fun s ->
        List.map
          (fun seed ->
            let report = Scenario.run s ~seed ~quick:true in
            ( s.Scenario.name,
              seed,
              Digest.to_hex (Digest.string (Scenario.fingerprint report)) ))
          [ 42; 1981; 7 ])
      Scenarios.all
  in
  if actual <> pinned_fingerprints then
    Alcotest.failf "quick-matrix fingerprints moved; actual table:\n%s"
      (String.concat "\n"
         (List.map
            (fun (name, seed, hex) ->
              Printf.sprintf "    (%S, %d, %S);" name seed hex)
            actual))

let () =
  Alcotest.run "tandem_chaos"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical fingerprint" `Quick
            test_same_seed_identical;
          Alcotest.test_case "different seeds, different schedules" `Quick
            test_different_seeds_differ;
          Alcotest.test_case "fingerprint carries verdict" `Quick
            test_fingerprint_carries_verdict;
          Alcotest.test_case "determinism under parallelism" `Quick
            test_determinism_under_parallelism;
          Alcotest.test_case "metrics merge equals accumulation" `Quick
            test_metrics_merge_equals_accumulation;
        ] );
      ( "checker",
        [
          Alcotest.test_case "detects corruption" `Quick
            test_checker_detects_corruption;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "quick matrix green" `Quick
            test_quick_matrix_green;
          Alcotest.test_case "fingerprints pinned" `Quick
            test_fingerprints_pinned;
        ] );
    ]
