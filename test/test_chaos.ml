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
    ("cpu-crash-restart", 42, "51807b0c4feae26efc62abe43780b4ce");
    ("cpu-crash-restart", 1981, "73645d40586018c69010d9752b39b803");
    ("cpu-crash-restart", 7, "01066723a1c72539e74e1c13cf5a32b2");
    ("dp-takeover", 42, "165dc6421fbef460903ed6aa8ddd3c5b");
    ("dp-takeover", 1981, "1cc2c395a40872353c7f70a067297f95");
    ("dp-takeover", 7, "ba678bbbe6ddebca3dc8e196feb62af7");
    ("tcp-takeover", 42, "eec2f2c9a3ad5f5c7afc377171138bd8");
    ("tcp-takeover", 1981, "b936540311c7289ff347fb7f45f59fd4");
    ("tcp-takeover", 7, "746ffdaef9ec2093bc731b555925d470");
    ("mirror-failure-revive", 42, "00a06707fb81da143443ee01b5d151b5");
    ("mirror-failure-revive", 1981, "07d8071ac1066aa8c8609e433cb12db9");
    ("mirror-failure-revive", 7, "32a614fce44577cdaeb92135668bf7a6");
    ("controller-bus-flap", 42, "f7289b25c2680b459521329763161e5f");
    ("controller-bus-flap", 1981, "b6904d105a727eb3db60256a4fecb29f");
    ("controller-bus-flap", 7, "fb4ee2e0ee1f49ebdb6bb093e7c2a91c");
    ("partition-heal", 42, "d1114afd0b86ebf78ea0d868d98ed18d");
    ("partition-heal", 1981, "3edd7f886eb557fa3ab62b0e93a44848");
    ("partition-heal", 7, "a0073f1fff7543480e62ac5f8314cab1");
    ("message-delay-loss", 42, "962bc7fd58459d69499901e41e8b23c9");
    ("message-delay-loss", 1981, "73bd12bc4fb0419fb765e39ace3bff7c");
    ("message-delay-loss", 7, "39765eaddf5447eb0eca254fd328d39f");
    ("home-crash-phase2", 42, "b3d8c3cf50f7f1cfcc6644d954c347c6");
    ("home-crash-phase2", 1981, "3b33b459a06f70ea86a3aea6fd416f0e");
    ("home-crash-phase2", 7, "63b3c4e45609b3373e2fa4ba5ec6d6a9");
    ("node-crash-rollforward", 42, "d4f66363d7beb8fdc36fcfb43cf947e9");
    ("node-crash-rollforward", 1981, "2b14a7f98bd8fb4b7d0573ac7d3b5bcb");
    ("node-crash-rollforward", 7, "01e798f926468a3cc97fbbf8baf8a6d8");
    ("recovery-storm", 42, "ad5ab90991721b1e0fee79f54263e73c");
    ("recovery-storm", 1981, "75ebb1b8335c58ef64f4de4bb1e050b6");
    ("recovery-storm", 7, "b1d71c4ffcf4ab11781033ec06fe91fe");
    ("mfg-partition-reconverge", 42, "8b21ed385f91cefa2342bd5ac3c301a7");
    ("mfg-partition-reconverge", 1981, "8363e24909864023925bf8477033e6d6");
    ("mfg-partition-reconverge", 7, "9654d75f818805813f8cc457bc04f821");
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
