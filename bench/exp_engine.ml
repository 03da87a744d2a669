(* ENGINE — wall-clock events/sec of the simulation engine itself.

   Every other experiment measures *simulated* seconds; this one measures
   how fast the simulator chews through events of the shapes the bank
   workloads generate, because at scale-out sizes (exp_scaleout: millions
   of events per run) the engine hot path is the wall-clock bottleneck.

   Four engine workloads plus one metrics workload:

   - schedule+fire storm: self-rescheduling timers, the pure heap
     add/pop/dispatch cycle with no cancellations.
   - rpc-style cancel storm: every unit of work arms a far-future timeout
     and cancels it on completion — the commit path's dominant pattern
     (each RPC that completes normally retires its timeout). The heap must
     not drown in cancelled tombstones.
   - fiber sleep churn: Fiber.sleep wake events through the effect-handler
     suspend/resume machinery (every Cpu.consume is one of these).
   - mailbox dispatch: a 16-server class parked on one Mailbox, each
     message waking the oldest waiter, one engine event per message.
   - labeled counter bump: the Metrics labeled-counter increment the
     per-message/per-RPC instrumentation pays.

   Fixed work per benchmark, wall-clock timed. A full run rewrites
   BENCH_engine.json with the measured rates, stamped with the host they
   were measured on. A quick run shrinks the work, leaves the JSON
   untouched and fails unless every workload reaches a third of its
   committed rate. *)

open Tandem_sim
open Bench_util

let time_events f =
  let started = Unix.gettimeofday () in
  let events = f () in
  let elapsed = Unix.gettimeofday () -. started in
  (events, elapsed)

(* ------------------------------------------------------------------ *)
(* Workloads. Each returns the number of events (or operations) driven. *)

(* 256 concurrent self-rescheduling timers racing to a shared budget: the
   heap stays ~256 deep, every iteration is one pop + one push + one
   dispatch. *)
let schedule_fire_storm ~budget () =
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
let cancel_storm ~budget () =
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
let fiber_sleep_churn ~budget () =
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

(* Server-class dispatch through a Mailbox: 16 parked servers (the shape
   of every $BANK/$TRANSFER server class), each message waking the oldest
   waiter, plus one producer sleep event per message. *)
let mailbox_dispatch ~budget () =
  let engine = Engine.create ~seed:19 () in
  let mailbox = Tandem_os.Mailbox.create () in
  let pid serial = { Tandem_os.Ids.node = 1; cpu = 0; serial } in
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
let labeled_counter_bump ~budget () =
  let metrics = Metrics.create () in
  let calls = Metrics.counter_family metrics ~name:"rpc.calls" ~label:"name" in
  let names = [| "$TMP"; "BANK"; "TRANSFER"; "INQUIRY" |] in
  for i = 1 to budget do
    Metrics.incr (Metrics.family_counter calls names.(i land 3))
  done;
  budget

(* ------------------------------------------------------------------ *)

let benchmarks ~quick =
  let scale n = if quick then n / 20 else n in
  [
    ( "engine/schedule-fire storm",
      schedule_fire_storm ~budget:(scale 4_000_000) );
    ("engine/rpc-style cancel storm", cancel_storm ~budget:(scale 1_000_000));
    ("engine/fiber sleep churn", fiber_sleep_churn ~budget:(scale 2_000_000));
    ("engine/mailbox dispatch", mailbox_dispatch ~budget:(scale 1_000_000));
    ( "metrics/labeled counter bump",
      labeled_counter_bump ~budget:(scale 4_000_000) );
  ]

let committed_path = "BENCH_engine.json"

(* The committed events/sec of [committed_path], by benchmark name. *)
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
              field "events_per_sec" Json.to_float row )
          with
          | Some name, Some rate -> (name, rate)
          | _ -> fail "a benchmark lacks name or events_per_sec")
        rows

(* The floor is a third of the committed rate: slack for runner variance,
   so the guard catches order-of-magnitude regressions (a reintroduced
   closure-compare heap), not noise. *)
let check_against_committed rows =
  let committed = committed_rates () in
  let names = List.sort String.compare in
  require
    (names (List.map fst committed)
    = names (List.map (fun (name, _, _, _) -> name) rows))
    "engine: measured benchmarks differ from the committed ones";
  List.iter
    (fun (name, _, _, rate) ->
      let committed_rate = List.assoc name committed in
      require
        (rate >= committed_rate /. 3.0)
        "engine: %s at %.0f events/sec, below a third of the committed %.0f"
        name rate committed_rate)
    rows

let write_json rows =
  let entries =
    List.map
      (fun (name, events, elapsed, rate) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("events", Json.Int events);
            ("elapsed_s", Json.Float elapsed);
            ("events_per_sec", Json.Float rate);
          ])
      rows
  in
  write_bench ~what:"engine results" committed_path
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-engine/1");
         ("host", host_json ());
         ("benchmarks", Json.List entries);
       ])

let run () =
  heading "ENGINE — simulation-engine events/sec (wall-clock)";
  claim
    "driving millions of simulated users makes the simulator's own event \
     hot path the bottleneck: heap dispatch, timer cancellation and \
     per-event instrumentation must run at memory speed";
  let quick = quick_mode () in
  let rows =
    List.map
      (fun (name, body) ->
        let events, elapsed = time_events body in
        let rate = float_of_int events /. elapsed in
        (name, events, elapsed, rate))
      (benchmarks ~quick)
  in
  print_table
    ~columns:[ "benchmark"; "events"; "elapsed s"; "events/sec" ]
    (List.map
       (fun (name, events, elapsed, rate) ->
         [
           name;
           string_of_int events;
           Printf.sprintf "%.3f" elapsed;
           Printf.sprintf "%.2e" rate;
         ])
       rows);
  if quick then check_against_committed rows;
  write_json rows;
  let slowest =
    List.fold_left
      (fun (n, r) (name, _, _, rate) -> if rate < r then (name, rate) else (n, r))
      ("", infinity) rows
  in
  observed "the slowest shape, %s, runs at %.2e events/sec on this host"
    (fst slowest) (snd slowest)
