(* The benchmark harness: one experiment per figure and per evaluated claim
   of the paper (see DESIGN.md's per-experiment index), plus the wall-clock
   benchmarks of the simulator itself.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- f1 e5   -- run selected experiments *)

(* The simulated paper experiments: the committed BENCH_results.json holds
   the digests of the registries of a run of exactly these. *)
let paper_experiments =
  [
    ("f1", "Figure 1: single-module hardware fault tolerance", Exp_f1.run);
    ("f2", "Figure 2: throughput scaling with processors", Exp_f2.run);
    ("f3", "Figure 3: transaction state transition census", Exp_f3.run);
    ("f4", "Figure 4: manufacturing network under partition", Exp_f4.run);
    ("e5", "on-line backout vs halt-and-restart", Exp_e5.run);
    ("e6", "checkpoint vs Write-Ahead-Log forced writes", Exp_e6.run);
    ("e7", "abbreviated vs distributed two-phase commit", Exp_e7.run);
    ("e8", "broadcast vs participants-only notification", Exp_e8.run);
    ("e9", "deadlock detection by timeout", Exp_e9.run);
    ("e10", "ROLLFORWARD recovery time", Exp_e10.run);
    ("e11", "partition timing sweep / manual override", Exp_e11.run);
    ("e12", "transaction restart limit", Exp_e12.run);
    ("e13", "mirrored volume failure and REVIVE", Exp_e13.run);
    ("e14", "node autonomy: master/suspense vs all-copies", Exp_e14.run);
    ("c1", "data and index compression (front-coding)", Exp_c1.run);
    ("e15", "lock contention vs access skew (ablation)", Exp_e15.run);
    ("e16", "cache capacity vs physical reads (ablation)", Exp_e16.run);
  ]

let experiments =
  paper_experiments
  @ [
      ("commitpath", "commit-path batching throughput (ablation)", Exp_commitpath.run);
      ("readpath", "read-heavy 2PC protocol optimizations (ablation)", Exp_readpath.run);
      ("commitproto", "Paxos Commit vs 2PC: cost and crash window (ablation)", Exp_commitproto.run);
      ("recovery", "dependency-parallel ROLLFORWARD vs sequential replay (ablation)", Exp_recovery.run);
      ("engine", "simulator wall-clock: engine, hot paths, core data paths", Exp_engine.run);
      ("scaleout", "million-account bank scale-out curves", Exp_scaleout.run);
      ("parallel", "domain-pool harness speedup vs --jobs (wall-clock)", Exp_parallel.run);
    ]

(* Strip --jobs N (or --jobs=N) out of the argument list and apply it; the
   remaining arguments select experiments as before. *)
let parse_jobs args =
  let bad value =
    Printf.eprintf "--jobs %s: expected a positive integer\n" value;
    exit 2
  in
  let jobs_of value =
    match int_of_string_opt value with
    | Some n when n >= 1 -> n
    | Some _ | None -> bad value
  in
  let rec strip = function
    | [] -> []
    | "--jobs" :: value :: rest ->
        Bench_util.set_jobs (jobs_of value);
        strip rest
    | [ "--jobs" ] -> bad "(missing value)"
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        Bench_util.set_jobs
          (jobs_of (String.sub arg 7 (String.length arg - 7)));
        strip rest
    | arg :: rest -> arg :: strip rest
  in
  strip args

let () =
  Bench_util.set_jobs (Tandem_sim.Domain_pool.jobs_from_env ());
  let requested =
    Sys.argv |> Array.to_list |> List.tl |> parse_jobs
    |> List.map String.lowercase_ascii
    |> List.filter (fun a -> a <> "--")
  in
  (* An unknown id is refused before anything runs: the list of ids on
     stderr, exit code 2. *)
  let ids = List.map (fun (id, _, _) -> id) in
  (match
     List.filter (fun id -> not (List.mem id (ids experiments))) requested
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment %s; available:\n"
        (String.concat " " unknown);
      List.iter
        (fun (id, title, _) -> Printf.eprintf "  %-11s %s\n" id title)
        experiments;
      exit 2);
  let selected =
    if requested = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id requested) experiments
  in
  Printf.printf
    "ENCOMPASS/TMF reproduction — experiment harness (simulated 1981 hardware)\n";
  List.iter
    (fun (id, title, run) ->
      Printf.printf "\n==================================================================\n";
      Printf.printf "[%s] %s\n" (String.uppercase_ascii id) title;
      Bench_util.set_experiment id;
      run ())
    selected;
  if ids selected = ids paper_experiments then
    Bench_util.write_results ~experiments:(ids paper_experiments)
      ~digests_path:"BENCH_results.json"
      ~registries_path:"BENCH_registries.json"
  else
    Printf.printf
      "\nBENCH_results.json left untouched: only a run of exactly %s \
       rewrites it\n"
      (String.concat " " (ids paper_experiments));
  Printf.printf "\nAll selected experiments complete.\n"
