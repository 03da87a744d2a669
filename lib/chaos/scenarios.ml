open Tandem_sim
open Tandem_encompass

(* The schedule RNG is derived from — but distinct from — the scenario
   seed, so the fault schedule is a pure function of the seed and never
   perturbs the cluster's or the workload's own random streams. *)
let schedule_rng ~seed = Rng.create ~seed:((seed * 31) + 17)

let ( |+ ) schedule (at_ms, fault) = Schedule.add schedule ~at_ms fault

let bank_report ~name ~seed ~quick bank schedule =
  let cluster = bank.Harness.cluster in
  let injector = Injector.create cluster in
  Harness.run_schedule cluster injector schedule;
  Harness.drain cluster;
  {
    Scenario.scenario = name;
    seed;
    quick;
    schedule = Schedule.to_string schedule;
    faults = Schedule.count schedule;
    fault_kinds = Schedule.kind_counts schedule;
    committed = Harness.committed bank;
    restarts = Harness.restarts bank;
    failures = Harness.failures bank;
    events = Engine.events_executed (Cluster.engine cluster);
    verdict = Harness.check_bank bank;
    metrics = Metrics.to_json (Cluster.metrics cluster);
  }

let bank_scenario ~name ~description ~paper ?nodes ?cpus ?transfers ?inquiries
    ?config build_schedule =
  let run ~seed ~quick =
    let bank =
      Harness.build_bank ?nodes ?cpus ?transfers ?inquiries ?config ~seed
        ~quick ()
    in
    let schedule = build_schedule (schedule_rng ~seed) ~quick in
    bank_report ~name ~seed ~quick bank schedule
  in
  { Scenario.name; description; paper; run }

let crash_restore rng ~quick make_crash make_restore =
  let at = Harness.draw_at rng ~quick in
  let back = at + Harness.draw_repair_delay rng ~quick in
  Schedule.empty |+ (at, make_crash) |+ (back, make_restore)

(* ------------------------------------------------------------------ *)

let cpu_crash_restart =
  bank_scenario ~name:"cpu-crash-restart"
    ~description:
      "Crash one random CPU mid-run and bring it back; every process pair \
       with a primary there must fail over and keep serving."
    ~paper:"NonStop process pairs (section 2); takeover via checkpoints."
    (fun rng ~quick ->
      let cpu = Rng.int rng 4 in
      crash_restore rng ~quick
        (Fault.Cpu_crash { node = 1; cpu })
        (Fault.Cpu_restore { node = 1; cpu }))

let dp_takeover =
  bank_scenario ~name:"dp-takeover"
    ~description:
      "Crash the DISCPROCESS primary CPU, restore it, then crash the backup \
       CPU too — both halves of the pair take over in turn under load."
    ~paper:
      "DISCPROCESS pairs (section 3.1): backup applies checkpointed intents."
    (fun rng ~quick ->
      (* Strictly sequential: the second CPU may only fail after the first
         failure has been detected (I'm-alive interval, 1s) and the pair has
         regrouped around a rebirth backup. Both halves dead inside one
         detection window is a non-survivable double failure, not a
         takeover test. *)
      let detection_ms = 1000 in
      let at1 = Harness.draw_at rng ~quick in
      let back1 = at1 + Harness.draw_repair_delay rng ~quick in
      let at2 =
        max back1 (at1 + detection_ms)
        + 500
        + Harness.draw_repair_delay rng ~quick
      in
      let back2 = at2 + Harness.draw_repair_delay rng ~quick in
      Schedule.empty
      |+ (at1, Fault.Cpu_crash { node = 1; cpu = 2 })
      |+ (back1, Fault.Cpu_restore { node = 1; cpu = 2 })
      |+ (at2, Fault.Cpu_crash { node = 1; cpu = 3 })
      |+ (back2, Fault.Cpu_restore { node = 1; cpu = 3 }))

let tcp_takeover =
  bank_scenario ~name:"tcp-takeover" ~inquiries:true
    ~description:
      "Crash the TCP's primary CPU while terminals have transactions in \
       flight; the backup TCP resumes them from the last checkpoint without \
       losing or duplicating any input."
    ~paper:"TCP checkpointing and transaction restart (sections 3.2, 4.4)."
    (fun rng ~quick ->
      crash_restore rng ~quick
        (Fault.Cpu_crash { node = 1; cpu = 0 })
        (Fault.Cpu_restore { node = 1; cpu = 0 }))

let mirror_failure_revive =
  bank_scenario ~name:"mirror-failure-revive"
    ~description:
      "Fail one drive of the mirrored data volume, keep committing against \
       the survivor, then REVIVE the failed drive back into the mirror set."
    ~paper:"Mirrored discs and REVIVE copy pass (section 2)."
    (fun rng ~quick ->
      let drive = if Rng.bool rng then `M0 else `M1 in
      let at = Harness.draw_at rng ~quick in
      let back = at + Harness.draw_repair_delay rng ~quick in
      let blocks = Rng.int_in_range rng ~lo:20 ~hi:60 in
      Schedule.empty
      |+ (at, Fault.Drive_failure { node = 1; volume = "$DATA1"; drive })
      |+ (back, Fault.Drive_revive { node = 1; volume = "$DATA1"; drive; blocks }))

let controller_bus_flap =
  bank_scenario ~name:"controller-bus-flap"
    ~description:
      "Fail one disc controller and one interprocessor bus (possibly \
       overlapping), then restore both; the dual-ported paths must keep the \
       volume reachable throughout."
    ~paper:"Dual-ported controllers and dual Dynabus (section 2)."
    (fun rng ~quick ->
      let controller = if Rng.bool rng then `A else `B in
      let bus = if Rng.bool rng then `X else `Y in
      let controllers =
        crash_restore rng ~quick
          (Fault.Controller_failure { node = 1; volume = "$DATA1"; controller })
          (Fault.Controller_restore { node = 1; volume = "$DATA1"; controller })
      in
      let buses =
        crash_restore rng ~quick
          (Fault.Bus_failure { node = 1; bus })
          (Fault.Bus_restore { node = 1; bus })
      in
      Schedule.merge controllers buses)

let partition_heal =
  bank_scenario ~name:"partition-heal" ~nodes:2
    ~description:
      "Partition a two-node cluster while distributed debit-credits and \
       transfers are in flight, then heal it; in-doubt transactions resolve \
       by presumed abort and the retries drain."
    ~paper:"TMP phase two across nodes; presumed abort (section 4.3)."
    (fun rng ~quick ->
      let at = Harness.draw_at rng ~quick in
      let heal = at + Harness.draw_repair_delay rng ~quick in
      Schedule.empty
      |+ (at, Fault.Partition { group_a = [ 1 ]; group_b = [ 2 ] })
      |+ (heal, Fault.Heal_partition))

let message_delay_loss =
  bank_scenario ~name:"message-delay-loss" ~nodes:3
    ~description:
      "Degrade one EXPAND link's latency and fail another outright (traffic \
       re-routes over the third node), then repair both; FIFO delivery and \
       retransmission absorb the disruption."
    ~paper:"EXPAND best-path routing and end-to-end sequencing (section 2)."
    (fun rng ~quick ->
      let pairs = [| (1, 2); (1, 3); (2, 3) |] in
      let da, db = Rng.pick rng pairs in
      let fa, fb = Rng.pick rng pairs in
      let factor = Rng.int_in_range rng ~lo:2 ~hi:6 in
      let degrade =
        crash_restore rng ~quick
          (Fault.Link_degrade { a = da; b = db; factor })
          (Fault.Link_repair { a = da; b = db })
      in
      let flap =
        crash_restore rng ~quick
          (Fault.Link_failure { a = fa; b = fb })
          (Fault.Link_restore { a = fa; b = fb })
      in
      Schedule.merge degrade flap)

(* ------------------------------------------------------------------ *)
(* The commit-protocol contrast scenario: kill a home node dead (partition
   plus total failure) between its participants' yes votes and phase two,
   and watch what the two commit protocols do with the same wreckage.

   Two transactions are pinned before the crash, both homed at node 3 with
   their writes and votes at node 2: one whose home never decided, one
   whose decision is durable (forced monitor record under 2PC, acceptor
   round under Paxos) but whose phase two never left. Under 2PC node 2
   must sit in doubt, locks held, until the home is repaired. Under Paxos
   Commit node 2's in-doubt timer makes it a recovery leader at the
   acceptors: mid-outage it aborts the undecided transaction and commits
   the decided one — the non-blocking property, observed directly. Both
   protocols must converge on identical dispositions once the home is
   back. *)

let home_crash_phase2 =
  let name = "home-crash-phase2" in
  let acceptor_count = 3 in
  let run_protocol ~seed ~quick protocol =
    (* Fixed instants (not drawn) so both protocol runs face the identical
       schedule: pinned at 60 ms, crash at 120 ms — inside the busy window,
       before the home's own 1 s transaction timer could fire — sample just
       before the 2.5 s repair, two timer periods into the outage. *)
    let wreck = Indoubt.build_wreck ~seed ~quick protocol in
    let bank = wreck.Indoubt.bank in
    let cluster = bank.Harness.cluster in
    let home = wreck.Indoubt.home and participant = wreck.Indoubt.participant in
    let tx_blocked = wreck.Indoubt.undecided
    and tx_decided = wreck.Indoubt.decided in
    let injector = Injector.create cluster in
    let schedule =
      Schedule.empty
      |+ (120, Fault.Partition { group_a = [ 1; 2 ]; group_b = [ home ] })
      |+ (120, Fault.Node_crash { node = home })
    in
    Harness.run_schedule cluster injector schedule;
    Cluster.run ~until:(Sim_time.milliseconds 2_400) cluster;
    let mid =
      ( Indoubt.in_doubt_count cluster ~node:participant,
        Indoubt.disposition cluster ~node:participant tx_blocked,
        Indoubt.disposition cluster ~node:participant tx_decided )
    in
    let repair =
      Schedule.empty
      |+ (2_500, Fault.Heal_partition)
      |+ (2_500, Fault.Node_recover { node = home })
    in
    Harness.run_schedule cluster injector repair;
    Harness.drain cluster;
    let final =
      ( Indoubt.disposition cluster ~node:participant tx_blocked,
        Indoubt.disposition cluster ~node:participant tx_decided )
    in
    (bank, Schedule.merge schedule repair, wreck.Indoubt.pinned_ok, mid, final)
  in
  let run ~seed ~quick =
    let bank2pc, schedule, ok_2pc, mid_2pc, final_2pc =
      run_protocol ~seed ~quick `Two_phase
    in
    let bankpx, _, ok_px, mid_px, final_px =
      run_protocol ~seed ~quick (`Paxos acceptor_count)
    in
    let check name passed detail = { Checker.name; passed; detail } in
    let indoubt_2pc, blocked_mid_2pc, decided_mid_2pc = mid_2pc in
    let indoubt_px, blocked_mid_px, decided_mid_px = mid_px in
    let dn = Indoubt.disposition_name in
    let contrast =
      [
        check "pinned-setup" (ok_2pc && ok_px)
          (Printf.sprintf "2pc=%b paxos=%b" ok_2pc ok_px);
        check "2pc-blocks-in-doubt"
          (indoubt_2pc >= 2
          && blocked_mid_2pc = None
          && decided_mid_2pc = None)
          (Printf.sprintf
             "mid-outage in-doubt=%d blocked=%s decided=%s (locks held \
              until repair)"
             indoubt_2pc (dn blocked_mid_2pc) (dn decided_mid_2pc));
        check "paxos-nonblocking"
          (indoubt_px = 0
          && blocked_mid_px = Some Tandem_audit.Monitor_trail.Aborted
          && decided_mid_px = Some Tandem_audit.Monitor_trail.Committed)
          (Printf.sprintf
             "mid-outage in-doubt=%d blocked=%s decided=%s (resolved at \
              the acceptors)"
             indoubt_px (dn blocked_mid_px) (dn decided_mid_px));
        check "dispositions-agree"
          (final_2pc = final_px
          && fst final_2pc = Some Tandem_audit.Monitor_trail.Aborted
          && snd final_2pc = Some Tandem_audit.Monitor_trail.Committed)
          (Printf.sprintf "2pc=(%s,%s) paxos=(%s,%s)"
             (dn (fst final_2pc))
             (dn (snd final_2pc))
             (dn (fst final_px))
             (dn (snd final_px)));
      ]
    in
    let label prefix verdict =
      List.map
        (fun c -> { c with Checker.name = prefix ^ ":" ^ c.Checker.name })
        verdict.Checker.checks
    in
    let verdict_2pc = Harness.check_bank bank2pc in
    let verdict_px = Harness.check_bank bankpx in
    let checks =
      contrast @ label "2pc" verdict_2pc @ label "paxos" verdict_px
    in
    {
      Scenario.scenario = name;
      seed;
      quick;
      schedule = Schedule.to_string schedule;
      faults = 2 * Schedule.count schedule;
      fault_kinds =
        List.map (fun (k, n) -> (k, 2 * n)) (Schedule.kind_counts schedule);
      committed = Harness.committed bank2pc + Harness.committed bankpx;
      restarts = Harness.restarts bank2pc + Harness.restarts bankpx;
      failures = Harness.failures bank2pc + Harness.failures bankpx;
      events =
        Engine.events_executed (Cluster.engine bank2pc.Harness.cluster)
        + Engine.events_executed (Cluster.engine bankpx.Harness.cluster);
      verdict =
        {
          Checker.checks;
          passed = List.for_all (fun (c : Checker.check) -> c.Checker.passed) checks;
        };
      metrics =
        (* Two clusters, one report: fold both registries into a fresh one,
           2pc first — the order fixes the order of each sample's observations. *)
        (let merged = Metrics.create () in
         Metrics.merge ~into:merged (Cluster.metrics bank2pc.Harness.cluster);
         Metrics.merge ~into:merged (Cluster.metrics bankpx.Harness.cluster);
         Metrics.to_json merged);
    }
  in
  {
    Scenario.name;
    description =
      "Kill a home node dead between its participants' yes votes and phase \
       two, under both commit protocols: 2PC participants sit in doubt, \
       locks held, until the home is repaired; Paxos Commit participants \
       become recovery leaders at the acceptors and resolve mid-outage — \
       converging on identical dispositions.";
    paper =
      "In-doubt resolution (section 4.3); Gray & Lamport, Consensus on \
       Transaction Commit.";
    run;
  }

let node_crash_rollforward =
  bank_scenario ~name:"node-crash-rollforward"
    ~description:
      "Total single-node failure mid-run: volatile state dies, then \
       ROLLFORWARD rebuilds the volume from the archive and the surviving \
       forced audit; committed work survives, in-flight work backs out."
    ~paper:"ROLLFORWARD from archive plus audit trail (section 4.5)."
    (fun rng ~quick ->
      let at = Harness.draw_at rng ~quick in
      Schedule.empty
      |+ (at, Fault.Node_crash { node = 1 })
      |+ (at, Fault.Node_recover { node = 1 }))

let recovery_storm =
  bank_scenario ~name:"recovery-storm" ~nodes:2
    ~config:
      {
        Tandem_os.Hw_config.default with
        rollforward_parallelism = `Chains 8;
      }
    ~description:
      "Repeated total node failures under distributed load with \
       dependency-parallel ROLLFORWARD (chains:8): each round rebuilds the \
       dead node from its archive by concurrent chain replay; committed \
       work survives every round and in-flight work backs out."
    ~paper:
      "ROLLFORWARD (section 4.5); Scaling Distributed Transaction \
       Processing and Recovery based on Dependency Logging (PAPERS.md)."
    (fun rng ~quick ->
      let at1 = Harness.draw_at rng ~quick in
      let at2 = at1 + Harness.draw_repair_delay rng ~quick in
      let at3 = at2 + Harness.draw_repair_delay rng ~quick in
      Schedule.empty
      |+ (at1, Fault.Node_crash { node = 1 })
      |+ (at1, Fault.Node_recover { node = 1 })
      |+ (at2, Fault.Node_crash { node = 2 })
      |+ (at2, Fault.Node_recover { node = 2 })
      |+ (at3, Fault.Node_crash { node = 1 })
      |+ (at3, Fault.Node_recover { node = 1 }))

(* ------------------------------------------------------------------ *)
(* The manufacturing data base: partition one plant away while global
   updates flow, heal, and wait for the suspense monitors to reconverge
   every replica. The suspense monitors run forever, so this scenario
   drives the engine in bounded slices rather than draining it. *)

let mfg_backlog t =
  List.fold_left
    (fun acc (plant, _) -> acc + Tandem_mfg.Mfg_app.suspense_backlog t plant)
    0 Tandem_mfg.Mfg_app.plant_names

let mfg_partition_reconverge =
  let name = "mfg-partition-reconverge" in
  let run ~seed ~quick =
    let t = Tandem_mfg.Mfg_app.build ~seed () in
    let cluster = Tandem_mfg.Mfg_app.cluster t in
    let net = Cluster.net cluster in
    let engine = Cluster.engine cluster in
    Tandem_mfg.Mfg_app.start_monitors t ();
    let rng = schedule_rng ~seed in
    (* Traffic stream: master-node global updates (skipped while the master
       is unreachable, as EXPAND applications would) plus local stock
       movements, every 400 ms until the stop instant. *)
    let traffic_rng = Rng.create ~seed:(seed + 1) in
    let stop_at = Sim_time.seconds (if quick then 6 else 15) in
    let rec traffic () =
      if Engine.now engine < stop_at then begin
        let plant = 1 + Rng.int traffic_rng 4 in
        let item = Rng.int traffic_rng (Tandem_mfg.Mfg_app.item_count t) in
        if Rng.bernoulli traffic_rng ~p:0.4 then begin
          if Tandem_os.Net.reachable net plant (Tandem_mfg.Mfg_app.master_of t ~item)
          then
            Tandem_mfg.Mfg_app.submit_global_update t ~via:plant ~item
              ~description:(Printf.sprintf "rev-%d" (Rng.int traffic_rng 100_000))
        end
        else
          Tandem_mfg.Mfg_app.submit_stock_update t ~node:plant ~item
            ~quantity:(Rng.int_in_range traffic_rng ~lo:(-3) ~hi:3);
        Engine.post_after engine (Sim_time.milliseconds 400) traffic
      end
    in
    traffic ();
    let isolated = 1 + Rng.int rng 4 in
    let others = List.filter (fun p -> p <> isolated) [ 1; 2; 3; 4 ] in
    let part_at =
      if quick then Rng.int_in_range rng ~lo:800 ~hi:2_000
      else Rng.int_in_range rng ~lo:2_000 ~hi:5_000
    in
    let heal_at =
      part_at
      +
      if quick then Rng.int_in_range rng ~lo:1_200 ~hi:2_400
      else Rng.int_in_range rng ~lo:3_000 ~hi:6_000
    in
    let schedule =
      Schedule.empty
      |+ (part_at, Fault.Partition { group_a = others; group_b = [ isolated ] })
      |+ (heal_at, Fault.Heal_partition)
    in
    let injector = Injector.create cluster in
    Harness.run_schedule cluster injector schedule;
    Cluster.run ~until:stop_at cluster;
    (* Settle: monitors replay the suspense backlogs built up behind the
       partition. Bounded slices; convergence is checked between them. *)
    let rec settle remaining =
      Cluster.run_for cluster (Sim_time.seconds 1);
      if
        remaining > 0
        && not (Tandem_mfg.Mfg_app.replicas_converged t && mfg_backlog t = 0)
      then settle (remaining - 1)
    in
    settle 30;
    (* One extra slice so the last delivery's transaction is fully closed
       before the registry check. *)
    Cluster.run_for cluster (Sim_time.seconds 1);
    let sum f =
      List.fold_left
        (fun acc (plant, _) -> acc + f (Tandem_mfg.Mfg_app.tcp t plant))
        0 Tandem_mfg.Mfg_app.plant_names
    in
    {
      Scenario.scenario = name;
      seed;
      quick;
      schedule = Schedule.to_string schedule;
      faults = Schedule.count schedule;
      fault_kinds = Schedule.kind_counts schedule;
      committed = sum Tcp.completed;
      restarts = sum Tcp.restarts;
      failures = sum Tcp.failures;
      events = Engine.events_executed engine;
      verdict = Checker.mfg t;
      metrics = Metrics.to_json (Cluster.metrics cluster);
    }
  in
  {
    Scenario.name;
    description =
      "Partition one manufacturing plant away while global item updates \
       flow, heal, and wait for the suspense monitors to replay the \
       deferred updates until every replica converges again.";
    paper = "Deferred-update replication via suspense files (section 5.2).";
    run;
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    cpu_crash_restart;
    dp_takeover;
    tcp_takeover;
    mirror_failure_revive;
    controller_bus_flap;
    partition_heal;
    message_delay_loss;
    home_crash_phase2;
    node_crash_rollforward;
    recovery_storm;
    mfg_partition_reconverge;
  ]

let names = List.map (fun s -> s.Scenario.name) all

let find name = List.find_opt (fun s -> String.equal s.Scenario.name name) all
