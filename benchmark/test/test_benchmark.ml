(* Every workload at smoke size, checked against BENCHMARK.json: the
   declared metrics are measured, the correctness checks pass, a seed
   replays exactly, another seed generates other inputs, and the traced run
   (the queue sampler) leaves the simulated metrics untouched. *)

open Tmf_benchmark
module Json = Tandem_sim.Json

let failures = ref 0

let expect ok what =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let benchmark =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Ok json -> json
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let field section key =
  List.map
    (fun entry ->
      match Json.member key entry with
      | Some (Json.String s) -> s
      | _ -> failwith (Printf.sprintf "BENCHMARK.json: %s entry without %s" section key))
    (Option.value ~default:[] (Option.bind (Json.member section benchmark) Json.to_list))

let declared section = List.combine (field section "name") (field section "unit")

let () =
  expect
    (field "workloads" "name" = List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    "BENCHMARK.json lists the benchmark's workloads";
  List.iter
    (fun (name, unit) ->
      expect
        (List.exists (fun (n, u, _) -> n = name && u = unit) Workloads.end_to_end)
        (Printf.sprintf "end-to-end metric %s (%s) is defined" name unit))
    (declared "end_to_end");
  List.iter
    (fun (w : Workloads.t) ->
      let run ~traced seed = Workloads.execute ~size:Workloads.Smoke ~traced ~seed w in
      let traced = run ~traced:true 1 in
      let again = run ~traced:false 1 in
      let other = run ~traced:false 2 in
      List.iter
        (fun (o : Workloads.outcome) ->
          expect (o.failed = 0)
            (Printf.sprintf "%s seed %d: no input fails" w.name o.seed);
          List.iter
            (fun (c : Tandem_chaos.Checker.check) ->
              expect c.passed
                (Printf.sprintf "%s seed %d: %s (%s)" w.name o.seed c.name c.detail))
            o.checks)
        [ traced; again; other ];
      expect
        (traced.input_digest = again.input_digest)
        (w.name ^ ": the same seed generates the same inputs");
      expect
        (Workloads.sim_metrics traced = Workloads.sim_metrics again)
        (w.name ^ ": the same seed gives identical simulated metrics, traced or not");
      expect
        (traced.input_digest <> other.input_digest)
        (w.name ^ ": another seed generates other inputs");
      List.iter
        (fun (name, _) ->
          expect (List.mem_assoc name again.metrics)
            (Printf.sprintf "%s measures end-to-end metric %s" w.name name))
        (declared "end_to_end");
      List.iter
        (fun (name, unit) ->
          expect
            (List.exists
               (fun (m : Layers.metric) -> m.name = name && m.unit = unit)
               traced.layers)
            (Printf.sprintf "%s measures per-layer metric %s (%s)" w.name name unit))
        (declared "per_layer"))
    Workloads.all;
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke runs: every workload passes"
