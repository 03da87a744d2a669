(* The TMF reproduction's benchmark.

     main.exe run   [--seed S] [--workload W] [--seconds T]   end-to-end, untraced
     main.exe trace [--seed S] [--workload W]                 per-layer, traced
     main.exe bench --workload W --seed S --seconds T --trace 0|1

   Every run of a workload is a fresh child process (main.exe child),
   started one at a time, so each starts from an empty heap and reports its
   own peak RSS. [run] writes benchmark/out/result.json, [trace] writes
   benchmark/out/trace-<workload>.json; both exit non-zero when a
   correctness check fails. [bench] prints the one-line JSON result that
   BENCHMARK.json describes. *)

open Tmf_benchmark
module Json = Tandem_sim.Json

let out_dir = Filename.concat "benchmark" "out"

(* ------------------------------------------------------------------ *)
(* Child processes *)

let spawn (w : Workloads.t) ~seed ~traced : Workloads.outcome =
  Printf.eprintf "  %s seed %d%s ...%!" w.name seed (if traced then " (traced)" else "");
  let channel =
    Unix.open_process_args_in Sys.executable_name
      [|
        Sys.executable_name; "child"; "--workload"; w.name; "--seed"; string_of_int seed;
        "--trace"; (if traced then "1" else "0");
      |]
  in
  set_binary_mode_in channel true;
  let outcome = try Some (Marshal.from_channel channel) with End_of_file -> None in
  match (Unix.close_process_in channel, outcome) with
  | Unix.WEXITED 0, Some (outcome : Workloads.outcome) ->
      Printf.eprintf " setup %.2fs run %.2fs\n%!"
        (List.assoc "setup_s" outcome.metrics)
        (List.assoc "run_s" outcome.metrics);
      outcome
  | _ -> failwith (Printf.sprintf "child run of %s (seed %d) failed" w.name seed)

(* ------------------------------------------------------------------ *)
(* One measurement: several input sets, then a replay of the first *)

type summary = {
  workload : Workloads.t;
  seed : int;
  outcomes : Workloads.outcome list;  (** One per input set, then the replay. *)
  checks : Tandem_chaos.Checker.check list;
  stats : (string * string * Workloads.clock * float list) list;
      (** (metric, unit, clock, one value per child) *)
}

let passed checks = List.for_all (fun (c : Tandem_chaos.Checker.check) -> c.passed) checks

(* Input set [i] of a measurement is generated from [seed * 1000 + i]. *)
let input_seed ~seed i = (seed * 1000) + i

(* As many input sets as fit in [seconds] (at least three), so simulated
   metrics, which differ between input sets, are medians over several; host
   metrics are medians over every child. The replay must reproduce its
   input set's simulated metrics exactly. *)
let measure (w : Workloads.t) ~seed ~seconds =
  let sets = max 3 (int_of_float (seconds /. w.child_s)) in
  let outcomes =
    List.init sets (fun i -> spawn w ~seed:(input_seed ~seed i) ~traced:false)
  in
  let first = List.hd outcomes in
  let replay = spawn w ~seed:first.seed ~traced:false in
  let repeatable =
    {
      Tandem_chaos.Checker.name = "sim-repeatable";
      passed =
        Workloads.sim_metrics replay = Workloads.sim_metrics first
        && replay.input_digest = first.input_digest;
      detail =
        Printf.sprintf "input set %d replayed, inputs %s" first.seed first.input_digest;
    }
  in
  let children = outcomes @ [ replay ] in
  let failing =
    List.concat_map
      (fun (o : Workloads.outcome) ->
        List.filter (fun (c : Tandem_chaos.Checker.check) -> not c.passed) o.checks)
      children
  in
  let stats =
    List.filter_map
      (fun (name, unit, clock) ->
        let over =
          match clock with Workloads.Sim -> outcomes | Workloads.Host -> children
        in
        match List.filter_map (fun o -> List.assoc_opt name o.Workloads.metrics) over with
        | [] -> None
        | values -> Some (name, unit, clock, values))
      Workloads.end_to_end
  in
  {
    workload = w;
    seed;
    outcomes = children;
    checks = repeatable :: (if failing = [] then first.checks else failing);
    stats;
  }

let total outcomes f = List.fold_left (fun acc o -> acc + f o) 0 outcomes

let clock_name = function Workloads.Sim -> "sim" | Workloads.Host -> "host"

let print_summary s =
  let first = List.hd s.outcomes in
  Printf.printf
    "\n== %s: seed %d, %d input sets and a replay, %d inputs each, %d failed\n"
    s.workload.name s.seed
    (List.length s.outcomes - 1)
    first.submitted
    (total s.outcomes (fun o -> o.Workloads.failed));
  Printf.printf "%-16s %-9s %-5s %14s %14s %14s\n" "metric" "unit" "clock" "median" "q1"
    "q3";
  List.iter
    (fun (name, unit, clock, values) ->
      let q1, q3 = Stats.quartiles values in
      Printf.printf "%-16s %-9s %-5s %14.4f %14.4f %14.4f%s\n" name unit
        (clock_name clock)
        (Stats.median values) q1 q3
        (if String.starts_with ~prefix:"latency" name then
           Printf.sprintf "  (%d samples)" first.latency_samples
         else ""))
    s.stats;
  List.iter
    (fun (c : Tandem_chaos.Checker.check) ->
      Printf.printf "%s %s: %s\n" (if c.passed then "PASS" else "FAIL") c.name c.detail)
    s.checks

(* ------------------------------------------------------------------ *)
(* JSON output *)

let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read (Filename.concat ".git" "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" name) with
      | Some sha -> sha
      | None ->
          Option.value ~default:"unknown"
            (Option.bind (read (Filename.concat ".git" "packed-refs")) (fun packed ->
                 List.find_map
                   (fun line ->
                     match String.split_on_char ' ' line with
                     | [ sha; ref_name ] when ref_name = name -> Some sha
                     | _ -> None)
                   (String.split_on_char '\n' packed))))
  | Some sha -> sha
  | None -> "unknown"

let host_json () =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (git_commit ()));
    ]

let checks_json checks =
  Json.List
    (List.map
       (fun (c : Tandem_chaos.Checker.check) ->
         Json.Obj
           [
             ("name", Json.String c.name); ("passed", Json.Bool c.passed);
             ("detail", Json.String c.detail);
           ])
       checks)

let summary_json s =
  let first = List.hd s.outcomes in
  Json.Obj
    [
      ("name", Json.String s.workload.name);
      ("correct", Json.Bool (passed s.checks));
      ( "children",
        Json.List
          (List.map
             (fun (o : Workloads.outcome) ->
               Json.Obj
                 [
                   ("input_seed", Json.Int o.seed);
                   ("input_digest", Json.String o.input_digest);
                   ("submitted", Json.Int o.submitted);
                   ("committed", Json.Int o.committed);
                   ("failed", Json.Int o.failed);
                 ])
             s.outcomes) );
      ("latency_samples", Json.Int first.latency_samples);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, clock, values) ->
               let q1, q3 = Stats.quartiles values in
               ( name,
                 Json.Obj
                   [
                     ("unit", Json.String unit);
                     ("clock", Json.String (clock_name clock));
                     ("median", Json.Float (Stats.median values));
                     ("q1", Json.Float q1);
                     ("q3", Json.Float q3);
                     ("values", Json.List (List.map (fun v -> Json.Float v) values));
                   ] ))
             s.stats) );
      ("checks", checks_json s.checks);
    ]

let write_json name json =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir name in
  Out_channel.with_open_text path (fun out ->
      output_string out (Json.to_string ~pretty:true json);
      output_string out "\n");
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Traced runs *)

(* One untraced and one traced child on the first input set. The traced run
   adds only a read-only sampler, so its simulated end-to-end metrics must
   equal the untraced run's exactly. *)
let trace_pair (w : Workloads.t) ~seed =
  let seed = input_seed ~seed 0 in
  let untraced = spawn w ~seed ~traced:false in
  let traced = spawn w ~seed ~traced:true in
  let read_only =
    {
      Tandem_chaos.Checker.name = "tracing-read-only";
      passed = Workloads.sim_metrics traced = Workloads.sim_metrics untraced;
      detail = "traced simulated end-to-end metrics equal the untraced run's";
    }
  in
  (untraced, traced, read_only :: traced.checks)

let trace_json (w : Workloads.t) (untraced : Workloads.outcome)
    (traced : Workloads.outcome) checks =
  let run_s (o : Workloads.outcome) = List.assoc "run_s" o.metrics in
  let tracer_span (s : Tracer.span) =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("parent", match s.parent with Some p -> Json.String p | None -> Json.Null);
        ("run_id", Json.String traced.run_id);
        ("start_s", Json.Float s.start_s);
        ("end_s", Json.Float s.end_s);
        ("self_s", Json.Float (Tracer.self_seconds traced.spans s));
        ("alloc_words", Json.Float s.alloc_words);
        ("major_gcs", Json.Int s.major_gcs);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "tmf-benchmark-trace/1");
      ("host", host_json ());
      ("workload", Json.String w.name);
      ("input_seed", Json.Int traced.seed);
      ("correct", Json.Bool (passed checks));
      ("tracing_overhead_s", Json.Float (run_s traced -. run_s untraced));
      ("untraced_run_s", Json.Float (run_s untraced));
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (m : Layers.metric) ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Float m.value); ("unit", Json.String m.unit);
                     ("base", Json.String m.base);
                   ] ))
             traced.layers) );
      ("spans", Json.List (List.map tracer_span traced.spans));
      ("checks", checks_json checks);
    ]

(* ------------------------------------------------------------------ *)
(* bench: the BENCHMARK.json contract *)

let benchmark_json () =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Ok json -> json
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

(* (name, unit) of every metric BENCHMARK.json lists under [section]. *)
let declared section =
  let json = benchmark_json () in
  List.map
    (fun entry ->
      match (Json.member "name" entry, Json.member "unit" entry) with
      | Some (Json.String name), Some (Json.String unit) -> (name, unit)
      | _ -> failwith ("BENCHMARK.json: malformed " ^ section ^ " entry"))
    (Option.value ~default:[] (Option.bind (Json.member section json) Json.to_list))

let select section available =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         match List.assoc_opt name available with
         | Some (value, u) when u = unit ->
             (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])
         | Some (_, u) ->
             failwith (Printf.sprintf "%s: unit %s, BENCHMARK.json says %s" name u unit)
         | None -> failwith (Printf.sprintf "%s metric %s is not measured" section name))
       (declared section))

let bench (w : Workloads.t) ~seed ~seconds ~traced =
  let outcomes, checks, available =
    if traced then
      let untraced, traced, checks = trace_pair w ~seed in
      ( [ untraced; traced ],
        checks,
        List.map (fun (m : Layers.metric) -> (m.name, (m.value, m.unit))) traced.layers )
    else
      let s = measure w ~seed ~seconds in
      print_summary s;
      ( s.outcomes,
        s.checks,
        List.map
          (fun (name, unit, _, values) -> (name, (Stats.median values, unit)))
          s.stats )
  in
  let metrics = select (if traced then "per_layer" else "end_to_end") available in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (passed checks));
            ("attempted", Json.Int (total outcomes (fun o -> o.Workloads.submitted)));
            ("failed", Json.Int (total outcomes (fun o -> o.Workloads.failed)));
            ("metrics", metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: main.exe run|trace [--seed S] [--workload W] [--seconds T]\n\
    \       main.exe bench --workload W --seed S --seconds T --trace 0|1";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let command, options = match args with c :: rest -> (c, rest) | [] -> usage () in
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let options = parse [] options in
  let int_option key default =
    match List.assoc_opt key options with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
    | None -> default
  in
  let seed = int_option "seed" 1 in
  let seconds () =
    float_of_int
      (int_option "seconds"
         (Option.value ~default:20
            (Option.bind (Json.member "run_seconds" (benchmark_json ())) Json.to_int)))
  in
  let workloads =
    match List.assoc_opt "workload" options with
    | None -> Workloads.all
    | Some name -> (
        match Workloads.find name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "unknown workload %s\n" name;
            exit 2)
  in
  match command with
  | "child" ->
      let outcome =
        Workloads.execute ~traced:(int_option "trace" 0 = 1) ~seed (List.hd workloads)
      in
      set_binary_mode_out stdout true;
      Marshal.to_channel stdout outcome [];
      flush stdout
  | "run" ->
      let summaries =
        List.map (fun w -> measure w ~seed ~seconds:(seconds ())) workloads
      in
      List.iter print_summary summaries;
      write_json "result.json"
        (Json.Obj
           [
             ("schema", Json.String "tmf-benchmark-result/1");
             ("host", host_json ());
             ("seed", Json.Int seed);
             ("workloads", Json.List (List.map summary_json summaries));
           ]);
      if not (List.for_all (fun s -> passed s.checks) summaries) then exit 1
  | "trace" ->
      let results =
        List.map
          (fun (w : Workloads.t) ->
            let untraced, traced, checks = trace_pair w ~seed in
            write_json (Printf.sprintf "trace-%s.json" w.name)
              (trace_json w untraced traced checks);
            passed checks)
          workloads
      in
      if not (List.for_all Fun.id results) then exit 1
  | "bench" -> (
      match (workloads, List.assoc_opt "workload" options) with
      | [ w ], Some _ ->
          bench w ~seed ~seconds:(seconds ()) ~traced:(int_option "trace" 0 = 1)
      | _ -> usage ())
  | _ -> usage ()
