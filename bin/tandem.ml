(* The tandem CLI: drive configurable simulations of the reproduced system.

     dune exec bin/tandem.exe -- bank --cpus 8 --volumes 2 --seconds 30
     dune exec bin/tandem.exe -- bank --fail-cpu 2 --fail-at 10
     dune exec bin/tandem.exe -- mfg --partition 20 --heal 40
     dune exec bin/tandem.exe -- state-machine *)

open Cmdliner
open Tandem_sim
open Tandem_encompass

(* ------------------------------------------------------------------ *)
(* bank: a single-node (or value-set) debit-credit run with optional
   failure injection, reporting the metrics registry. *)

(* The cluster options of the bank, stats and trace subcommands; only the
   defaults of terminals, servers and seconds differ between them. *)
type bank_opts = {
  seed : int;
  cpus : int;
  volumes : int;
  terminals : int;
  servers : int;
  seconds : int;
  skew : float;
}

(* A bad option value is refused before anything is simulated: one
   [tandem: ...] line on stderr, exit code 2, nothing on stdout. *)
let refuse fmt =
  Printf.ksprintf
    (fun message ->
      Printf.eprintf "tandem: %s\n" message;
      exit 2)
    fmt

(* Out-of-range values are refused up front, before they reach a
   constructor that would raise. *)
let bank_opts_term ~terminals ~servers ~seconds =
  let int_opt name default doc =
    Arg.(value & opt int default & info [ name ] ~doc)
  in
  let make seed cpus volumes terminals servers seconds skew =
    let check name value lo hi =
      if value < lo || value > hi then
        refuse "--%s %d: expected %s" name value
          (if hi = max_int then Printf.sprintf "at least %d" lo
           else Printf.sprintf "%d-%d" lo hi)
    in
    check "cpus" cpus 2 16;
    check "volumes" volumes 1 max_int;
    check "terminals" terminals 1 32;
    check "servers" servers 1 max_int;
    check "seconds" seconds 1 max_int;
    { seed; cpus; volumes; terminals; servers; seconds; skew }
  in
  Term.(
    const make
    $ int_opt "seed" 42 "Random seed."
    $ int_opt "cpus" 4 "Processors (2-16)."
    $ int_opt "volumes" 1 "Data volumes."
    $ int_opt "terminals" terminals "Terminals (1-32)."
    $ int_opt "servers" servers "BANK server class size."
    $ int_opt "seconds" seconds "Simulated run length."
    $ Arg.(
        value & opt float 0.0 & info [ "skew" ] ~doc:"Zipf theta over accounts."))

(* Build the standard single-node bank and queue the closed-loop input —
   shared by the bank, stats and trace subcommands. *)
let setup_bank ?(trace_tags = [])
    { seed; cpus; volumes; terminals; servers; seconds; skew } =
  let cluster, spec =
    Workload.build_bank ~seed ~cpus
      ~volumes:(List.init volumes (fun _ -> 1))
      ~accounts:(500 * volumes) ~tellers:20 ~branches:10
      ~servers:[ `Bank servers ] ()
  in
  List.iter
    (fun tag ->
      Tandem_sim.Trace.enable (Tandem_os.Net.trace (Cluster.net cluster)) tag)
    trace_tags;
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals
      ~program:Workload.debit_credit_program ()
  in
  let rng = Rng.create ~seed:(seed + 1) in
  for terminal = 0 to terminals - 1 do
    for _ = 1 to 100 * seconds do
      Tcp.submit tcp ~terminal (Workload.debit_credit_input rng spec ~skew ())
    done
  done;
  (cluster, tcp)

let run_bank ({ cpus; volumes; seconds; _ } as opts) fail_cpu fail_at
    trace_tags =
  let cluster, tcp = setup_bank ~trace_tags opts in
  (match (fail_cpu, fail_at) with
  | Some cpu, at ->
      ignore
        (Engine.schedule_after (Cluster.engine cluster) (Sim_time.seconds at)
           (fun () ->
             Printf.printf "[inject] failing cpu %d at %ds\n" cpu at;
             Cluster.fail_cpu cluster ~node:1 cpu))
  | None, _ -> ());
  Cluster.run ~until:(Sim_time.seconds seconds) cluster;
  Printf.printf "simulated %ds on %d cpus / %d volumes: %d committed (%.1f tx/s), %d restarts, %d failed\n\n"
    seconds cpus volumes (Tcp.completed tcp)
    (float_of_int (Tcp.completed tcp) /. float_of_int (max 1 seconds))
    (Tcp.restarts tcp) (Tcp.failures tcp);
  Format.printf "%a@." Metrics.pp (Cluster.metrics cluster);
  let entries =
    Tandem_sim.Trace.entries (Tandem_os.Net.trace (Cluster.net cluster))
  in
  if entries <> [] then begin
    Printf.printf "\ntrace:\n";
    List.iter (fun e -> Format.printf "  %a@." Tandem_sim.Trace.pp_entry e) entries
  end

let bank_cmd =
  let fail_cpu =
    Arg.(value & opt (some int) None & info [ "fail-cpu" ] ~doc:"Fail this processor.")
  in
  let fail_at =
    Arg.(value & opt int 10 & info [ "fail-at" ] ~doc:"Failure instant (seconds).")
  in
  let trace =
    Arg.(value & opt_all string [] & info [ "trace" ] ~doc:"Enable a trace subsystem (tmf, pair, hw, net; * for all).")
  in
  Cmd.v
    (Cmd.info "bank" ~doc:"Run the debit-credit workload on one node")
    Term.(
      const run_bank
      $ bank_opts_term ~terminals:8 ~servers:4 ~seconds:30
      $ fail_cpu $ fail_at $ trace)

(* ------------------------------------------------------------------ *)
(* stats: run a workload, then print the whole observability surface —
   metrics registry, latency percentiles (commit, abort and recovery from
   their histograms, end-to-end from the exact terminal sample) and the
   per-transaction span summary; optionally dump it all as JSON. *)

let print_latency what ~count quantile max =
  if count > 0 then
    Printf.printf
      "%s latency (n=%d): p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n" what
      count (quantile 0.5) (quantile 0.9) (quantile 0.99) max

let pp_latency_histogram metrics name what =
  let h = Metrics.read_histogram metrics name in
  print_latency what ~count:(Metrics.histogram_count h)
    (Metrics.histogram_quantile h) (Metrics.histogram_max h)

let pp_latency_sample metrics name what =
  let s = Metrics.read_sample metrics name in
  print_latency what ~count:(Metrics.sample_count s) (Metrics.percentile s)
    (Metrics.sample_max s)

(* The blocking-window histogram (microseconds): how long voted-yes
   participants held locks waiting for someone else's verdict. Always
   printed — a zero row on a single-node run still tells the reader the
   window is being measured. *)
let pp_indoubt_histogram metrics =
  let h = Metrics.read_histogram metrics "tmp.indoubt_us" in
  if Metrics.histogram_count h = 0 then
    Printf.printf "in-doubt window: no voted-yes participant waits recorded\n"
  else
    Printf.printf
      "in-doubt window (n=%d): p50=%.0fus p90=%.0fus p99=%.0fus max=%.0fus\n"
      (Metrics.histogram_count h)
      (Metrics.histogram_quantile h 0.5)
      (Metrics.histogram_quantile h 0.9)
      (Metrics.histogram_quantile h 0.99)
      (Metrics.histogram_max h)

(* Guaranteed rows for the batching and commit-protocol counters: a run
   that never exercised one (knob off, workload shape) still shows it at
   zero instead of silently omitting it from the registry dump. *)
let print_counter_group metrics title names =
  Printf.printf "%s:\n" title;
  List.iter
    (fun name ->
      Printf.printf "  %-26s %d\n" name (Metrics.sum_counters metrics name))
    names;
  Printf.printf "\n"

let print_stats ~top ~json cluster =
  let metrics = Cluster.metrics cluster in
  let spans = Cluster.spans cluster in
  let engine = Cluster.engine cluster in
  Format.printf "%a@." Metrics.pp metrics;
  Printf.printf "\n";
  (* Engine accounting: cancelled events never executed (a timeout retired
     by a completed RPC, say), and pending counts live events only —
     cancelled-but-unreaped tombstones are excluded. *)
  Printf.printf "simulation engine:\n";
  Printf.printf "  %-26s %d\n" "sim.events_executed"
    (Engine.events_executed engine);
  Printf.printf "  %-26s %d\n" "sim.events_cancelled"
    (Engine.events_cancelled engine);
  Printf.printf "  %-26s %d\n\n" "sim.events_pending" (Engine.pending engine);
  print_counter_group metrics "commit-path batching"
    [ "disk.force_batches"; "net.boxcars"; "dp.coalesced_checkpoints" ];
  print_counter_group metrics "commit protocol"
    [
      "tmp.read_only_votes";
      "tmp.phase2_pruned";
      "tmp.presumed_aborts";
      "tmp.fast_path_commits";
    ];
  print_counter_group metrics "recovery replay"
    [ "tmf.recovery_chains"; "tmf.recovery_images_replayed" ];
  pp_latency_histogram metrics "tmf.commit_latency_ms" "commit";
  pp_latency_histogram metrics "tmf.abort_latency_ms" "abort";
  pp_latency_sample metrics "encompass.tx_latency_ms" "end-to-end";
  pp_latency_histogram metrics "tmf.recovery_ms" "recovery";
  pp_indoubt_histogram metrics;
  Format.printf "@.%a@." (Span.pp_summary ~top) spans;
  match json with
  | None -> ()
  | Some path -> (
      match open_out path with
      | out ->
          output_string out
            (Json.to_string ~pretty:true
               (Json.Obj
                  [
                    ("metrics", Metrics.to_json metrics);
                    ("spans", Span.summary_json ~top spans);
                  ]));
          output_string out "\n";
          close_out out;
          Printf.printf "stats written to %s\n" path
      | exception Sys_error message ->
          Printf.eprintf "cannot write stats: %s\n" message;
          exit 1)

(* Build the four-plant manufacturing data base, start its monitors, and
   queue its background traffic — shared by the mfg and stats subcommands.
   Every 700 ms until [seconds], a random plant submits either (30%) a
   global item-description update, when the item's master plant is
   reachable from it, or a local stock movement. *)
let start_mfg ~seed ~seconds =
  let t = Tandem_mfg.Mfg_app.build ~seed () in
  let cluster = Tandem_mfg.Mfg_app.cluster t in
  let net = Cluster.net cluster in
  let engine = Cluster.engine cluster in
  Tandem_mfg.Mfg_app.start_monitors t ();
  let rng = Rng.create ~seed:(seed + 1) in
  let rec traffic () =
    if Engine.now engine < Sim_time.seconds seconds then begin
      let plant = 1 + Rng.int rng 4 in
      if Rng.bernoulli rng ~p:0.3 then begin
        let item = Rng.int rng (Tandem_mfg.Mfg_app.item_count t) in
        if
          Tandem_os.Net.reachable net plant
            (Tandem_mfg.Mfg_app.master_of t ~item)
        then
          Tandem_mfg.Mfg_app.submit_global_update t ~via:plant ~item
            ~description:(Printf.sprintf "rev-%d" (Rng.int rng 100_000))
      end
      else
        Tandem_mfg.Mfg_app.submit_stock_update t ~node:plant
          ~item:(Rng.int rng (Tandem_mfg.Mfg_app.item_count t))
          ~quantity:(Rng.int_in_range rng ~lo:(-5) ~hi:5);
      ignore (Engine.schedule_after engine (Sim_time.milliseconds 700) traffic)
    end
  in
  traffic ();
  t

let run_stats workload ({ seed; cpus; volumes; seconds; _ } as opts) top json
    =
  match workload with
  | "bank" ->
      let cluster, tcp = setup_bank opts in
      Cluster.run ~until:(Sim_time.seconds seconds) cluster;
      Printf.printf
        "bank: %ds simulated on %d cpus / %d volumes — %d committed (%.1f \
         tx/s), %d restarts, %d failed\n\n"
        seconds cpus volumes (Tcp.completed tcp)
        (float_of_int (Tcp.completed tcp) /. float_of_int (max 1 seconds))
        (Tcp.restarts tcp) (Tcp.failures tcp);
      print_stats ~top ~json cluster
  | "mfg" ->
      let cluster = Tandem_mfg.Mfg_app.cluster (start_mfg ~seed ~seconds) in
      Cluster.run ~until:(Sim_time.seconds seconds) cluster;
      Printf.printf "mfg: %ds simulated across four plants\n\n" seconds;
      print_stats ~top ~json cluster
  | other -> refuse "WORKLOAD %s: expected bank or mfg" other

let stats_cmd =
  let workload =
    Arg.(value & pos 0 string "bank" & info [] ~docv:"WORKLOAD" ~doc:"bank or mfg.")
  in
  let top = Arg.(value & opt int 5 & info [ "top" ] ~doc:"Slowest transactions to show.") in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Also write metrics and span summary as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a workload and print metrics, latency percentiles and the \
             transaction span summary")
    Term.(
      const run_stats $ workload
      $ bank_opts_term ~terminals:8 ~servers:4 ~seconds:30
      $ top $ json)

(* ------------------------------------------------------------------ *)
(* trace: run the bank with trace subsystems enabled and print the event
   log plus the lifecycle timelines of the slowest transactions. *)

let pp_time_us formatter = function
  | None -> Format.pp_print_string formatter "-"
  | Some at -> Format.fprintf formatter "%a" Sim_time.pp at

let print_timeline span =
  Format.printf "  %s [%s]@." span.Span.span_id
    (Span.outcome_to_string span.Span.outcome);
  Format.printf "    begin=%a phase1=%a phase2=%a backout=%a end=%a@."
    Sim_time.pp span.Span.begin_at pp_time_us span.Span.phase1_at pp_time_us
    span.Span.phase2_at pp_time_us span.Span.backout_at pp_time_us
    span.Span.end_at;
  Format.printf
    "    msgs=%d prepares=%d phase2_msgs=%d forces=%d lock_waits=%d \
     restarts=%d undone=%d remote_nodes=%d@."
    span.Span.messages span.Span.prepares span.Span.phase2_msgs
    span.Span.forced_writes span.Span.lock_waits span.Span.restarts
    span.Span.images_undone span.Span.remote_nodes

let run_trace ({ seconds; _ } as opts) tags top =
  let tags = if tags = [] then [ "*" ] else tags in
  let cluster, tcp = setup_bank ~trace_tags:tags opts in
  let trace = Tandem_os.Net.trace (Cluster.net cluster) in
  Cluster.run ~until:(Sim_time.seconds seconds) cluster;
  Printf.printf "bank: %ds simulated — %d committed, %d restarts, %d failed\n"
    seconds (Tcp.completed tcp) (Tcp.restarts tcp) (Tcp.failures tcp);
  let entries = Tandem_sim.Trace.entries trace in
  Printf.printf "\ntrace (%d entries):\n" (List.length entries);
  List.iter (fun e -> Format.printf "  %a@." Tandem_sim.Trace.pp_entry e) entries;
  let spans = Cluster.spans cluster in
  Printf.printf "\nslowest transactions:\n";
  List.iter print_timeline (Span.slowest ~n:top spans)

let trace_cmd =
  let tags =
    Arg.(value & opt_all string [] & info [ "tag" ]
         ~doc:"Trace subsystem to enable (tmf, pair, hw, net, bus; repeatable; \
               default all).")
  in
  let top = Arg.(value & opt int 5 & info [ "top" ] ~doc:"Slowest transactions to show.") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the bank with trace subsystems enabled and print the event \
             log and span timelines")
    Term.(
      const run_trace
      $ bank_opts_term ~terminals:4 ~servers:2 ~seconds:5
      $ tags $ top)

(* ------------------------------------------------------------------ *)
(* mfg: the four-plant manufacturing data base with a partition window. *)

let run_mfg seed seconds partition_at heal_at =
  let t = start_mfg ~seed ~seconds in
  let cluster = Tandem_mfg.Mfg_app.cluster t in
  let net = Cluster.net cluster in
  let engine = Cluster.engine cluster in
  (match partition_at with
  | Some at ->
      ignore
        (Engine.schedule_after engine (Sim_time.seconds at) (fun () ->
             Printf.printf "[inject] partitioning Neufahrn away at %ds\n" at;
             Tandem_os.Net.partition net [ 1; 2; 3 ] [ 4 ]));
      ignore
        (Engine.schedule_after engine (Sim_time.seconds heal_at) (fun () ->
             Printf.printf "[inject] healing the network at %ds\n" heal_at;
             Tandem_os.Net.heal_partition net))
  | None -> ());
  Cluster.run ~until:(Sim_time.seconds seconds) cluster;
  Printf.printf "\nafter %ds simulated:\n" seconds;
  List.iter
    (fun (plant, name) ->
      Printf.printf "  %-12s completed=%-4d suspense backlog=%d\n" name
        (Tcp.completed (Tandem_mfg.Mfg_app.tcp t plant))
        (Tandem_mfg.Mfg_app.suspense_backlog t plant))
    Tandem_mfg.Mfg_app.plant_names;
  Printf.printf "  divergent items: %d (converged: %b)\n"
    (Tandem_mfg.Mfg_app.divergent_items t)
    (Tandem_mfg.Mfg_app.replicas_converged t)

let mfg_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let seconds = Arg.(value & opt int 60 & info [ "seconds" ] ~doc:"Simulated run length.") in
  let partition_at =
    Arg.(value & opt (some int) None & info [ "partition" ] ~doc:"Cut Neufahrn off at this instant.")
  in
  let heal_at =
    Arg.(value & opt int 40 & info [ "heal" ] ~doc:"Reconnect at this instant.")
  in
  Cmd.v
    (Cmd.info "mfg" ~doc:"Run the four-plant manufacturing data base")
    Term.(const run_mfg $ seed $ seconds $ partition_at $ heal_at)

(* ------------------------------------------------------------------ *)
(* query: run a mini-ENFORM query against a freshly-loaded bank. *)

let run_query seconds text =
  let cluster, spec =
    Workload.build_bank ~seed:7 ~accounts:100 ~servers:[ `Bank 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:8
      ~program:Workload.debit_credit_program ()
  in
  let rng = Rng.create ~seed:13 in
  for terminal = 0 to 7 do
    for _ = 1 to 10 * seconds do
      Tcp.submit tcp ~terminal (Workload.debit_credit_input rng spec ())
    done
  done;
  Cluster.run ~until:(Sim_time.seconds seconds) cluster;
  Printf.printf "ran %d transactions over %ds of banking, then:
  %s

"
    (Tcp.completed tcp) seconds text;
  let dp = Cluster.discprocess cluster ~node:1 ~volume:"$DATA1" in
  match Tandem_db.Query.parse text with
  | Error m -> Printf.printf "parse error: %s
" m
  | Ok query -> (
      match Discprocess.file dp query.Tandem_db.Query.file with
      | None -> Printf.printf "no such file %s (try ACCOUNT, TELLER, BRANCH, HISTORY)
" query.Tandem_db.Query.file
      | Some file -> (
          match Tandem_db.Query.run query file with
          | Error m -> Printf.printf "error: %s
" m
          | Ok rows ->
              List.iter
                (fun row -> Format.printf "%a@." Tandem_db.Query.pp_row row)
                rows;
              Printf.printf "(%d row(s))
" (List.length rows)))

let query_cmd =
  let seconds = Arg.(value & opt int 10 & info [ "seconds" ] ~doc:"Banking warm-up length.") in
  let text =
    Arg.(
      value
      & pos_all string [ "FIND"; "ACCOUNT"; "WHERE"; "balance"; ">"; "1100"; "SORTED"; "BY"; "balance" ]
      & info [] ~docv:"QUERY")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a mini-ENFORM query over a freshly-run bank data base")
    Term.(const (fun s q -> run_query s (String.concat " " q)) $ seconds $ text)

(* ------------------------------------------------------------------ *)
(* indoubt: the paper's manual-override utility for in-doubt transactions,
   demonstrated on a reproducible wreck. Two transactions are pinned
   mid-commit (home node 3, writes and yes votes at node 2, one with a
   durable commit decision), the home node is killed, and the survivors'
   in-doubt lists are printed. [--resolve] runs each survivor's own
   resolution attempt — under 2PC the dead home cannot answer and the
   locks stay held; under Paxos Commit the acceptors deliver the verdict
   without the home. [--force] is the operator override for the outcomes
   learned out-of-band. *)

let indoubt_nodes = [ 1; 2; 3 ]

let print_indoubt_table cluster =
  let engine = Cluster.engine cluster in
  let any = ref false in
  List.iter
    (fun node ->
      List.iter
        (fun (info : Tmf.Tmf_state.tx_info) ->
          any := true;
          let age =
            match info.Tmf.Tmf_state.voted_at with
            | None -> "-"
            | Some at ->
                Printf.sprintf "%dus" (Sim_time.diff (Engine.now engine) at)
          in
          Printf.printf "  node %d  %-12s home=%d voted-at=%s in-doubt-for=%s volumes=%d\n"
            node
            (Tmf.Transid.to_string info.Tmf.Tmf_state.transid)
            (Tmf.Transid.home info.Tmf.Tmf_state.transid)
            (match info.Tmf.Tmf_state.voted_at with
            | None -> "-"
            | Some at -> Sim_time.to_string at)
            age
            (List.length info.Tmf.Tmf_state.local_volumes))
        (Tmf.Tmp.in_doubt_transactions (Tmf.tmp (Cluster.tmf cluster) node)))
    indoubt_nodes;
  if not !any then Printf.printf "  (none)\n"

let run_indoubt protocol_name acceptors seed resolve force =
  (* Acceptors are placed one per node, so a 2f+1 set must fit on the
     three [indoubt_nodes]. *)
  if acceptors <> 1 && acceptors <> 3 then
    refuse "--acceptors %d: expected 1 or 3 (2f+1 on 3 nodes)" acceptors;
  let protocol =
    match protocol_name with
    | "2pc" -> `Two_phase
    | "paxos" -> `Paxos acceptors
    | other -> refuse "--protocol %s: expected 2pc or paxos" other
  in
  let force =
    Option.map
      (function
        | "commit" as verdict -> (verdict, Tandem_audit.Monitor_trail.Committed)
        | "abort" as verdict -> (verdict, Tandem_audit.Monitor_trail.Aborted)
        | other -> refuse "--force %s: expected commit or abort" other)
      force
  in
  let open Tandem_chaos in
  let wreck =
    Indoubt.build_wreck ~transfers:false ~seed ~quick:true protocol
  in
  let cluster = wreck.Indoubt.bank.Harness.cluster in
  let home = wreck.Indoubt.home and participant = wreck.Indoubt.participant in
  let tx_blocked = wreck.Indoubt.undecided
  and tx_decided = wreck.Indoubt.decided in
  if not wreck.Indoubt.pinned_ok then begin
    Printf.eprintf "failed to pin the demonstration transactions\n";
    exit 1
  end;
  let injector = Injector.create cluster in
  Injector.apply injector
    (Fault.Partition { group_a = [ 1; 2 ]; group_b = [ home ] });
  Injector.apply injector (Fault.Node_crash { node = home });
  Printf.printf
    "protocol=%s: pinned two transactions at node %d (home node %d now \
     dead):\n  %-12s home never decided\n  %-12s decision durable, phase \
     two never sent\n\n"
    protocol_name participant home
    (Tmf.Transid.to_string (Option.get tx_blocked.Indoubt.transid))
    (Tmf.Transid.to_string (Option.get tx_decided.Indoubt.transid));
  Printf.printf "in-doubt transactions (locks held):\n";
  print_indoubt_table cluster;
  let survivors () =
    List.concat_map
      (fun node ->
        List.map
          (fun (info : Tmf.Tmf_state.tx_info) ->
            (node, info.Tmf.Tmf_state.transid))
          (Tmf.Tmp.in_doubt_transactions (Tmf.tmp (Cluster.tmf cluster) node)))
      (List.filter (fun n -> n <> home) indoubt_nodes)
  in
  if resolve then begin
    Printf.printf "\nresolving at the survivors (home still dead):\n";
    List.iter
      (fun (node, transid) ->
        Indoubt.drive_client ~bound_ms:2_000 cluster ~node (fun self ->
            Tmf.Tmp.resolve_in_doubt
              (Tmf.tmp (Cluster.tmf cluster) node)
              ~self transid))
      (survivors ());
    Printf.printf "in-doubt after resolution attempts:\n";
    print_indoubt_table cluster
  end;
  (match force with
  | None -> ()
  | Some (verdict, disposition) ->
      Printf.printf "\nforcing %s on the remaining in-doubt transactions:\n"
        verdict;
      List.iter
        (fun (node, transid) ->
          Printf.printf "  node %d %s: operator override\n" node
            (Tmf.Transid.to_string transid);
          Indoubt.drive_client ~bound_ms:2_000 cluster ~node (fun self ->
              Tmf.Tmp.force_disposition
                (Tmf.tmp (Cluster.tmf cluster) node)
                ~self transid disposition))
        (survivors ());
      Printf.printf "in-doubt after override:\n";
      print_indoubt_table cluster);
  Printf.printf "\ndispositions at node %d: undecided=%s decided=%s\n"
    participant
    (Indoubt.disposition_name
       (Indoubt.disposition cluster ~node:participant tx_blocked))
    (Indoubt.disposition_name
       (Indoubt.disposition cluster ~node:participant tx_decided))

let indoubt_cmd =
  let protocol =
    Arg.(
      value & opt string "2pc"
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:"Commit protocol: 2pc or paxos.")
  in
  let acceptors =
    Arg.(
      value & opt int 3
      & info [ "acceptors" ]
          ~doc:"Acceptor count under paxos (2f+1 on the 3 nodes: 1 or 3).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let resolve =
    Arg.(
      value & flag
      & info [ "resolve" ]
          ~doc:
            "Run each survivor's own resolution attempt: blocked under 2pc \
             (the home is dead), verdicts delivered by the acceptors under \
             paxos.")
  in
  let force =
    Arg.(
      value & opt (some string) None
      & info [ "force" ] ~docv:"VERDICT"
          ~doc:
            "Operator override: impose commit or abort on every remaining \
             in-doubt transaction.")
  in
  Cmd.v
    (Cmd.info "indoubt"
       ~doc:
         "Demonstrate the in-doubt list/resolve utility on a home-node \
          crash, under either commit protocol")
    Term.(const run_indoubt $ protocol $ acceptors $ seed $ resolve $ force)

(* ------------------------------------------------------------------ *)
(* state-machine: print Figure 3. *)

let run_state_machine () =
  Printf.printf "Transaction state transitions (Figure 3):\n\n";
  List.iter
    (fun from ->
      List.iter
        (fun into ->
          if Tmf.Tx_state.legal_transition from into then
            Printf.printf "  %-8s -> %s\n"
              (Tmf.Tx_state.to_string from)
              (Tmf.Tx_state.to_string into))
        Tmf.Tx_state.all)
    Tmf.Tx_state.all;
  Printf.printf "\nterminal states:";
  List.iter
    (fun s ->
      if Tmf.Tx_state.is_terminal s then
        Printf.printf " %s" (Tmf.Tx_state.to_string s))
    Tmf.Tx_state.all;
  Printf.printf " (the transid then leaves the system)\n"

let state_machine_cmd =
  Cmd.v
    (Cmd.info "state-machine" ~doc:"Print the Figure 3 transaction state machine")
    Term.(const run_state_machine $ const ())

(* ------------------------------------------------------------------ *)
(* chaos: the deterministic fault-injection scenario matrix. *)

let chaos_list () =
  List.iter
    (fun s ->
      Printf.printf "%-26s %s\n%-26s   (%s)\n" s.Tandem_chaos.Scenario.name
        s.Tandem_chaos.Scenario.description ""
        s.Tandem_chaos.Scenario.paper)
    Tandem_chaos.Scenarios.all

let chaos_summary_table reports =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    "| scenario | seed | faults | committed | restarts | checks | verdict |\n";
  Buffer.add_string buffer "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      let open Tandem_chaos in
      let ok =
        List.length
          (List.filter
             (fun (c : Checker.check) -> c.Checker.passed)
             r.Scenario.verdict.Checker.checks)
      in
      Buffer.add_string buffer
        (Printf.sprintf "| %s | %d | %d | %d | %d | %d/%d | %s |\n"
           r.Scenario.scenario r.Scenario.seed r.Scenario.faults
           r.Scenario.committed r.Scenario.restarts ok
           (List.length r.Scenario.verdict.Checker.checks)
           (if Scenario.passed r then "✅ pass" else "❌ FAIL")))
    reports;
  Buffer.contents buffer

let run_chaos list_only scenario_name seeds quick show_schedule
    verify_determinism summary_path jobs =
  let open Tandem_chaos in
  if list_only then begin
    chaos_list ();
    0
  end
  else begin
    let scenarios =
      match scenario_name with
      | None -> Scenarios.all
      | Some name -> (
          match Scenarios.find name with
          | Some s -> [ s ]
          | None ->
              Printf.eprintf "unknown scenario %S; try one of:\n  %s\n" name
                (String.concat "\n  " Scenarios.names);
              exit 2)
    in
    let seeds = if seeds = [] then [ 42; 1981; 7 ] else seeds in
    let jobs =
      match jobs with
      | Some n when n >= 1 -> n
      | Some n ->
          Printf.eprintf "--jobs %d: expected a positive integer\n" n;
          exit 2
      | None -> Tandem_sim.Domain_pool.jobs_from_env ()
    in
    let tasks =
      List.concat_map
        (fun s -> List.map (fun seed -> (s, seed)) seeds)
        scenarios
    in
    (* Each (scenario, seed) run is a sealed simulation, so the matrix fans
       out on the domain pool. Workers never print: a task returns its
       report (plus the rerun's fingerprint verdict under
       --verify-determinism) and the main domain renders everything
       afterwards in matrix order — stdout is byte-identical at any
       --jobs. *)
    let results =
      Tandem_sim.Domain_pool.map ~jobs
        (fun (s, seed) ->
          let report = Scenario.run s ~seed ~quick in
          let deterministic =
            (not verify_determinism)
            || String.equal
                 (Scenario.fingerprint report)
                 (Scenario.fingerprint (Scenario.run s ~seed ~quick))
          in
          (report, deterministic))
        tasks
    in
    let determinism_failures = ref 0 in
    List.iter
      (fun (report, deterministic) ->
        print_endline (Scenario.summary_line report);
        if show_schedule || not (Scenario.passed report) then begin
          print_endline report.Scenario.schedule;
          print_endline (Checker.verdict_to_string report.Scenario.verdict)
        end;
        if not deterministic then begin
          incr determinism_failures;
          Printf.printf "DETERMINISM FAILURE %s seed=%d: reruns diverged\n"
            report.Scenario.scenario report.Scenario.seed
        end)
      results;
    let reports = List.map fst results in
    let failed = List.filter (fun r -> not (Scenario.passed r)) reports in
    (match summary_path with
    | None -> ()
    | Some path ->
        let channel = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        output_string channel "## chaos matrix\n\n";
        output_string channel (chaos_summary_table reports);
        close_out channel);
    Printf.printf "\n%d/%d runs passed"
      (List.length reports - List.length failed)
      (List.length reports);
    if verify_determinism then
      Printf.printf ", %d determinism failure(s)" !determinism_failures;
    print_newline ();
    if failed = [] && !determinism_failures = 0 then 0 else 1
  end

let chaos_cmd =
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.")
  in
  let scenario_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Run one scenario instead of the whole matrix.")
  in
  let seeds =
    Arg.(
      value
      & opt (list int) []
      & info [ "seeds" ] ~docv:"N,M,..."
          ~doc:"Seeds to run each scenario under (default 42,1981,7).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Small clusters and short schedules, for CI.")
  in
  let show_schedule =
    Arg.(
      value & flag
      & info [ "show-schedule" ]
          ~doc:"Print each run's fault schedule and verdict.")
  in
  let verify_determinism =
    Arg.(
      value & flag
      & info [ "verify-determinism" ]
          ~doc:
            "Run every selected (scenario, seed) twice and fail unless the \
             reports are byte-identical.")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"PATH"
          ~doc:
            "Append a markdown results table to $(docv) (e.g. \
             \\$GITHUB_STEP_SUMMARY).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run the scenario×seed matrix on $(docv) OS domains (default \
             the $(b,TANDEM_JOBS) environment variable, else 1 = serial). \
             Every run is an independent simulation, so fingerprints, \
             verdicts and output are byte-identical at any job count.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the deterministic fault-injection scenario matrix")
    Term.(
      const
        (fun list_only scenario seeds quick show_schedule verify summary jobs ->
          Stdlib.exit
            (run_chaos list_only scenario seeds quick show_schedule verify
               summary jobs))
      $ list_only $ scenario_name $ seeds $ quick $ show_schedule
      $ verify_determinism $ summary $ jobs)

let () =
  let man =
    [
      `S "HARDWARE CONFIGURATION";
      `P
        "Boot-time knobs of $(b,Hw_config) and their defaults: the disc \
         access time plus the batching and protocol knobs that ablations, \
         scenarios and commands set. Set them in code when building a \
         cluster; benchmarks ablate them one at a time. The simulated \
         machine's other costs (message latencies, CPU costs, failure \
         detection, RPC and network retries) are fixed constants of the \
         NonStop II model, not knobs.";
    ]
    @ List.map
        (fun (name, default, doc) ->
          `I (Printf.sprintf "$(b,%s) (default %s)" name default, doc))
        Tandem_os.Hw_config.knob_docs
  in
  let info =
    Cmd.info "tandem" ~version:"1.0.0"
      ~doc:"Simulated ENCOMPASS/TMF: reliable distributed transaction processing"
      ~man
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            bank_cmd;
            stats_cmd;
            trace_cmd;
            mfg_cmd;
            query_cmd;
            chaos_cmd;
            indoubt_cmd;
            state_machine_cmd;
          ]))
