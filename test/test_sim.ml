(* Unit and property tests for the simulation kernel. *)

open Tandem_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sim_time *)

let test_time_units () =
  check_int "ms" 1_000 (Sim_time.milliseconds 1);
  check_int "s" 1_000_000 (Sim_time.seconds 1);
  check_int "min" 60_000_000 (Sim_time.minutes 1);
  check_int "round" 1_500_000 (Sim_time.of_seconds_float 1.5);
  Alcotest.(check string) "pp us" "500us" (Sim_time.to_string 500);
  Alcotest.(check string) "pp ms" "1.500ms" (Sim_time.to_string 1_500);
  Alcotest.(check string) "pp s" "2.000s" (Sim_time.to_string 2_000_000)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  (* Drawing from b must not perturb a relative to a reference stream that
     split but never drew. *)
  let reference = Rng.create ~seed:7 in
  ignore (Rng.split reference);
  for _ = 1 to 10 do
    ignore (Rng.int b 100)
  done;
  check_int "a unaffected by b" (Rng.int reference 1000) (Rng.int a 1000)

let prop_rng_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_range =
  QCheck.Test.make ~name:"Rng.int_in_range inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, extent) ->
      let rng = Rng.create ~seed in
      let hi = lo + extent in
      let v = Rng.int_in_range rng ~lo ~hi in
      v >= lo && v <= hi)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~mean:10.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 10" true (mean > 9.0 && mean < 11.0)

let test_rng_zipf_skew () =
  let rng = Rng.create ~seed:13 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf rng ~n:10 ~theta:1.0 in
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "rank 0 most popular" true (counts.(0) > counts.(9) * 3)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let engine = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at engine 30 (note "c"));
  ignore (Engine.schedule_at engine 10 (note "a"));
  ignore (Engine.schedule_at engine 20 (note "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 30 (Engine.now engine)

let test_engine_fifo_same_time () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at engine 10 (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo among equals" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule_at engine 10 (fun () -> fired := true) in
  Engine.cancel handle;
  Engine.run engine;
  check_bool "cancelled event did not fire" false !fired

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at engine 10 (fun () -> incr fired));
  ignore (Engine.schedule_at engine 100 (fun () -> incr fired));
  Engine.run ~until:50 engine;
  check_int "only first fired" 1 !fired;
  check_int "clock advanced to until" 50 (Engine.now engine);
  Engine.run engine;
  check_int "second fired later" 2 !fired

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at engine 10 (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after engine 5 (fun () -> log := "inner" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "final clock" 15 (Engine.now engine)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine 10 (fun () -> ()));
  Engine.run engine;
  (* Each entry point names itself in the error. *)
  Alcotest.check_raises "schedule_at rejects the past"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at engine 5 (fun () -> ())));
  Alcotest.check_raises "post_at rejects the past"
    (Invalid_argument "Engine.post_at: time is in the past") (fun () ->
      Engine.post_at engine 5 (fun () -> ()));
  Alcotest.check_raises "schedule_after rejects a negative span"
    (Invalid_argument "Engine.schedule_after: negative span") (fun () ->
      ignore (Engine.schedule_after engine (-1) (fun () -> ())));
  Alcotest.check_raises "post_after rejects a negative span"
    (Invalid_argument "Engine.post_after: negative span") (fun () ->
      Engine.post_after engine (-1) (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Engine equivalence against a naive reference scheduler.

   The monomorphized heap, event pooling and tombstone reaping are pure
   representation changes: the engine's observable behaviour is the
   (time, seq)-ordered execution sequence, and that must match a scheduler
   with none of those optimizations. The workload below randomly schedules
   and cancels from inside running events — the same decision stream is
   replayed against both implementations because both deliver events in the
   same order, so the RNG draws stay aligned. *)

let run_scheduler_workload ~seed ~schedule ~cancel ~now ~run =
  let rng = Rng.create ~seed in
  let trace = ref [] in
  let handles = Hashtbl.create 64 in
  let next_id = ref 0 in
  let fresh () =
    incr next_id;
    !next_id
  in
  let rec action id () =
    trace := (id, now ()) :: !trace;
    (* Spawn 0-2 children, capped so the branching process terminates. *)
    let children = if !next_id >= 300 then 0 else Rng.int rng 3 in
    for _ = 1 to children do
      let child = fresh () in
      Hashtbl.replace handles child
        (schedule (1 + Rng.int rng 40) (action child))
    done;
    (* Sometimes cancel a random outstanding handle — possibly one that
       already fired, which must be a no-op on both sides. *)
    if Rng.int rng 4 = 0 && Hashtbl.length handles > 0 then begin
      let ids =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) handles [])
      in
      let victim = List.nth ids (Rng.int rng (List.length ids)) in
      cancel (Hashtbl.find handles victim)
    end
  in
  for _ = 1 to 8 do
    let id = fresh () in
    Hashtbl.replace handles id (schedule (1 + Rng.int rng 40) (action id))
  done;
  run ();
  List.rev !trace

(* The reference: a sorted association list, no pooling, no tombstones. *)
module Reference_scheduler = struct
  type ev = {
    time : int;
    seq : int;
    act : unit -> unit;
    mutable live : bool;
    mutable fired : bool;
  }

  type t = { mutable events : ev list; mutable now : int; mutable seq : int }

  let create () = { events = []; now = 0; seq = 0 }

  let schedule t delay act =
    let ev =
      { time = t.now + delay; seq = t.seq; act; live = true; fired = false }
    in
    t.seq <- t.seq + 1;
    t.events <- ev :: t.events;
    ev

  let cancel ev = if not ev.fired then ev.live <- false

  let run t =
    let rec loop () =
      let next =
        List.fold_left
          (fun best ev ->
            if not ev.live then best
            else
              match best with
              | Some b
                when b.time < ev.time || (b.time = ev.time && b.seq < ev.seq)
                ->
                  best
              | _ -> Some ev)
          None t.events
      in
      match next with
      | None -> ()
      | Some ev ->
          t.events <- List.filter (fun e -> e != ev) t.events;
          t.now <- ev.time;
          ev.fired <- true;
          ev.act ();
          loop ()
    in
    loop ()
end

(* Pure function of the seed — each instance builds its own engine and
   reference, so the property also runs fanned out on the domain pool. *)
let engine_matches_reference ~seed =
  let engine = Engine.create () in
  let engine_trace =
    run_scheduler_workload ~seed
      ~schedule:(fun delay act -> Engine.schedule_after engine delay act)
      ~cancel:Engine.cancel
      ~now:(fun () -> Engine.now engine)
      ~run:(fun () -> Engine.run engine)
  in
  let reference = Reference_scheduler.create () in
  let reference_trace =
    run_scheduler_workload ~seed
      ~schedule:(Reference_scheduler.schedule reference)
      ~cancel:Reference_scheduler.cancel
      ~now:(fun () -> reference.Reference_scheduler.now)
      ~run:(fun () -> Reference_scheduler.run reference)
  in
  engine_trace = reference_trace

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine replays the reference scheduler exactly"
    ~count:60 QCheck.small_int (fun seed -> engine_matches_reference ~seed)

let test_engine_pending_excludes_tombstones () =
  let engine = Engine.create () in
  let handles =
    List.init 5 (fun i ->
        Engine.schedule_at engine (10 * (i + 1)) (fun () -> ()))
  in
  check_int "all live" 5 (Engine.pending engine);
  Engine.cancel (List.nth handles 1);
  Engine.cancel (List.nth handles 3);
  check_int "tombstones excluded" 3 (Engine.pending engine);
  check_int "cancellations counted" 2 (Engine.events_cancelled engine);
  Engine.cancel (List.nth handles 3);
  check_int "double cancel counted once" 2 (Engine.events_cancelled engine);
  Engine.run engine;
  check_int "drained" 0 (Engine.pending engine)

let test_engine_stale_handle_is_noop () =
  (* After an event fires, its record returns to the pool and may be reused
     by the next schedule; cancelling through the stale handle must not
     touch the new occupant. *)
  let engine = Engine.create () in
  let stale = Engine.schedule_at engine 10 (fun () -> ()) in
  Engine.run engine;
  let fired = ref false in
  ignore (Engine.schedule_at engine 20 (fun () -> fired := true));
  Engine.cancel stale;
  Engine.run engine;
  check_bool "reused slot unaffected by stale cancel" true !fired;
  check_int "stale cancel not counted" 0 (Engine.events_cancelled engine)

let test_engine_mass_cancel_reclaims () =
  (* A cancel storm must not leave the heap full of tombstones, and the
     survivors must still fire in order. *)
  let engine = Engine.create () in
  let log = ref [] in
  let handles =
    List.init 1_000 (fun i ->
        ( i,
          Engine.schedule_at engine (i + 1) (fun () -> log := i :: !log) ))
  in
  List.iter (fun (i, h) -> if i mod 10 <> 0 then Engine.cancel h) handles;
  check_int "only survivors pending" 100 (Engine.pending engine);
  check_int "cancellations counted" 900 (Engine.events_cancelled engine);
  Engine.run engine;
  let expected = List.init 100 (fun i -> 10 * i) in
  Alcotest.(check (list int)) "survivors fired in order" expected
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Fiber *)

let test_fiber_sleep_sequence () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Fiber.spawn (fun () ->
         log := ("start", Engine.now engine) :: !log;
         Fiber.sleep engine 100;
         log := ("mid", Engine.now engine) :: !log;
         Fiber.sleep engine 50;
         log := ("end", Engine.now engine) :: !log));
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "timeline"
    [ ("start", 0); ("mid", 100); ("end", 150) ]
    (List.rev !log)

let test_fiber_kill_stops_execution () =
  let engine = Engine.create () in
  let progressed = ref 0 in
  let fiber =
    Fiber.spawn (fun () ->
        incr progressed;
        Fiber.sleep engine 100;
        incr progressed)
  in
  ignore (Engine.schedule_at engine 50 (fun () -> Fiber.kill fiber));
  Engine.run engine;
  check_int "no progress after kill" 1 !progressed;
  check_bool "fiber reported dead" false (Fiber.is_alive fiber)

let test_fiber_resume_once () =
  (* A parking site that calls resume twice must have no double effect. *)
  let engine = Engine.create () in
  let resumes = ref [] in
  let hits = ref 0 in
  ignore
    (Fiber.spawn (fun () ->
         Fiber.suspend (fun resume -> resumes := resume :: !resumes);
         incr hits));
  Engine.run engine;
  (match !resumes with
  | [ resume ] ->
      resume (Ok ());
      resume (Ok ())
  | _ -> Alcotest.fail "expected one parked resume");
  check_int "resumed exactly once" 1 !hits

let test_fiber_exception_escapes () =
  let engine = Engine.create () in
  ignore
    (Engine.schedule_at engine 1 (fun () ->
         ignore (Fiber.spawn (fun () -> failwith "boom"))));
  Alcotest.check_raises "exception escapes to scheduler"
    (Failure "boom") (fun () -> Engine.run engine)

exception Waited_out

let test_suspend_until_winner_cancels_timer () =
  let engine = Engine.create () in
  let parked = ref None in
  let result = ref None in
  let timed_out = ref false in
  ignore
    (Fiber.spawn (fun () ->
         let value =
           Fiber.suspend_until engine ~timeout:100
             ~on_timeout:(fun () ->
               timed_out := true;
               Waited_out)
             (fun resume -> parked := Some resume)
         in
         result := Some (value, Engine.now engine)));
  ignore
    (Engine.schedule_at engine 40 (fun () ->
         match !parked with
         | Some resume -> resume (Ok "reply")
         | None -> Alcotest.fail "fiber never parked"));
  Engine.run engine;
  Alcotest.(check (option (pair string int)))
    "woken by the reply at its time"
    (Some ("reply", 40))
    !result;
  check_bool "loser cleanup did not run" false !timed_out;
  (* The winning resume must cancel the timer, not leave it to fire into
     a dead continuation. *)
  check_int "timeout event cancelled" 1 (Engine.events_cancelled engine);
  check_int "nothing pending" 0 (Engine.pending engine)

let test_suspend_until_times_out () =
  let engine = Engine.create () in
  let outcome = ref None in
  ignore
    (Fiber.spawn (fun () ->
         match
           Fiber.suspend_until engine ~timeout:100
             ~on_timeout:(fun () -> Waited_out)
             (fun _resume -> ())
         with
         | (_ : string) -> Alcotest.fail "must not produce a value"
         | exception Waited_out -> outcome := Some (Engine.now engine)));
  Engine.run engine;
  Alcotest.(check (option int)) "timed out at the deadline" (Some 100) !outcome

(* ------------------------------------------------------------------ *)
(* Trace and Metrics *)

let test_trace_filtering () =
  let engine = Engine.create () in
  let trace = Trace.create engine in
  Trace.enable trace "tmf";
  Trace.emit trace "tmf" "commit %d" 1;
  Trace.emit trace "lock" "ignored %d" 2;
  check_int "only enabled subsystem recorded" 1 (List.length (Trace.entries trace));
  check_bool "find hit" true
    (Option.is_some (Trace.find trace ~subsystem:"tmf" ~substring:"commit"));
  check_bool "find miss" true
    (Option.is_none (Trace.find trace ~subsystem:"tmf" ~substring:"abort"))

let test_trace_wildcard () =
  let engine = Engine.create () in
  let trace = Trace.create engine in
  Trace.enable trace "*";
  Trace.emit trace "anything" "x";
  check_int "wildcard records" 1 (Trace.count trace ~subsystem:"anything")

let test_metrics_counters () =
  let metrics = Metrics.create () in
  let c = Metrics.counter metrics "tx.commits" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter" 5 (Metrics.read_counter metrics "tx.commits");
  check_int "untouched counter" 0 (Metrics.read_counter metrics "tx.aborts")

let test_metrics_samples () =
  let metrics = Metrics.create () in
  let s = Metrics.sample metrics "latency" in
  List.iter (Metrics.observe s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Metrics.sample_count s);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Metrics.mean s);
  Alcotest.(check (float 0.001)) "p50" 3.0 (Metrics.percentile s 0.5);
  Alcotest.(check (float 0.001)) "max" 5.0 (Metrics.sample_max s);
  (* Observation after sorting must keep percentiles correct. *)
  Metrics.observe s 0.0;
  Alcotest.(check (float 0.001)) "p0 after new obs" 0.0 (Metrics.percentile s 0.0)

let test_metrics_family_equals_string_keyed () =
  let metrics = Metrics.create () in
  let family = Metrics.counter_family metrics ~name:"rpc.calls" ~label:"name" in
  let via_family = Metrics.family_counter family "BANK" in
  let via_string =
    Metrics.counter_with metrics "rpc.calls" ~labels:[ ("name", "BANK") ]
  in
  check_bool "family handle is the string-keyed counter" true
    (via_family == via_string);
  Metrics.incr via_family;
  Metrics.add via_string 2;
  check_int "one series under the canonical name" 3
    (Metrics.read_counter metrics
       (Metrics.labeled_name "rpc.calls" [ ("name", "BANK") ]));
  check_bool "cache hit returns the same handle" true
    (Metrics.family_counter family "BANK" == via_family);
  check_bool "labels stay distinct" false
    (Metrics.family_counter family "TMP" == via_family)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within observed range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (values, p) ->
      let metrics = Metrics.create () in
      let s = Metrics.sample metrics "x" in
      List.iter (Metrics.observe s) values;
      let v = Metrics.percentile s p in
      let lo = List.fold_left min infinity values in
      let hi = List.fold_left max neg_infinity values in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)


(* ------------------------------------------------------------------ *)
(* Fiber_mutex *)

let test_mutex_serializes () =
  let engine = Engine.create () in
  let mutex = Fiber_mutex.create () in
  let log = ref [] in
  let worker name =
    ignore
      (Fiber.spawn (fun () ->
           Fiber_mutex.with_lock mutex (fun () ->
               log := (name ^ "-in") :: !log;
               Fiber.sleep engine 100;
               log := (name ^ "-out") :: !log)))
  in
  worker "a";
  worker "b";
  worker "c";
  Engine.run engine;
  Alcotest.(check (list string))
    "no interleaving, FIFO order"
    [ "a-in"; "a-out"; "b-in"; "b-out"; "c-in"; "c-out" ]
    (List.rev !log)

let test_mutex_released_on_exception () =
  let engine = Engine.create () in
  let mutex = Fiber_mutex.create () in
  let second_ran = ref false in
  ignore
    (Fiber.spawn (fun () ->
         try Fiber_mutex.with_lock mutex (fun () -> failwith "boom")
         with Failure _ -> ()));
  ignore
    (Fiber.spawn (fun () ->
         Fiber_mutex.with_lock mutex (fun () -> second_ran := true)));
  Engine.run engine;
  check_bool "released after exception" true !second_ran;
  check_bool "unlocked at rest" false (Fiber_mutex.locked mutex)

let test_mutex_killed_waiter_passes_ownership () =
  let engine = Engine.create () in
  let mutex = Fiber_mutex.create () in
  let third_ran = ref false in
  ignore
    (Fiber.spawn (fun () ->
         Fiber_mutex.with_lock mutex (fun () -> Fiber.sleep engine 100)));
  let victim =
    Fiber.spawn (fun () ->
        Fiber_mutex.with_lock mutex (fun () -> Alcotest.fail "victim must not enter"))
  in
  ignore
    (Fiber.spawn (fun () ->
         Fiber_mutex.with_lock mutex (fun () -> third_ran := true)));
  ignore (Engine.schedule_at engine 50 (fun () -> Fiber.kill victim));
  Engine.run engine;
  check_bool "ownership passed over the corpse" true !third_ran;
  check_bool "unlocked at rest" false (Fiber_mutex.locked mutex)

(* ------------------------------------------------------------------ *)
(* Domain pool *)

let test_pool_map_order () =
  let items = List.init 25 (fun i -> i) in
  let expect = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d keeps task order" jobs)
        expect
        (Domain_pool.map ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 8 ]

let test_pool_chunked () =
  let items = List.init 23 (fun i -> i) in
  Alcotest.(check (list int))
    "chunk=5 keeps task order"
    (List.map (fun i -> i + 100) items)
    (Domain_pool.map ~chunk:5 ~jobs:3 (fun i -> i + 100) items)

let test_pool_edge_sizes () =
  Alcotest.(check (list int)) "empty" [] (Domain_pool.map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int))
    "singleton" [ 9 ]
    (Domain_pool.map ~jobs:4 (fun i -> i * 3) [ 3 ]);
  Alcotest.(check (list int))
    "more jobs than tasks" [ 2; 4 ]
    (Domain_pool.map ~jobs:8 (fun i -> 2 * i) [ 1; 2 ])

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun jobs ->
      (* Two failing tasks: the join re-raises the lowest-indexed failure
         whatever domain hit it first. On the parallel path every task is
         still attempted; at jobs=1 the pool is literally List.map, which
         stops at the first raise — also the lowest index. *)
      let ran = Array.make 10 false in
      (match
         Domain_pool.map ~jobs
           (fun i ->
             ran.(i) <- true;
             if i = 3 || i = 7 then raise (Boom i) else i)
           (List.init 10 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom i ->
          check_int (Printf.sprintf "lowest index wins at jobs=%d" jobs) 3 i);
      if jobs > 1 then
        check_bool
          (Printf.sprintf "all tasks attempted at jobs=%d" jobs)
          true
          (Array.for_all Fun.id ran))
    [ 1; 2; 4 ]

let prop_pool_matches_serial =
  QCheck.Test.make ~name:"pool map = serial map at any jobs and chunk"
    ~count:25
    QCheck.(triple (list small_int) (int_range 1 8) (int_range 1 4))
    (fun (xs, jobs, chunk) ->
      Domain_pool.map ~chunk ~jobs (fun x -> (2 * x) + 1) xs
      = List.map (fun x -> (2 * x) + 1) xs)

(* The engine-vs-reference equivalence, fanned out: each instance is a
   sealed pair of schedulers, so the property must hold when instances run
   concurrently on separate domains. *)
let test_engine_reference_parallel_instances () =
  let jobs = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let seeds = List.init 16 (fun i -> (31 * i) + 5) in
  let results =
    Domain_pool.map ~jobs (fun seed -> engine_matches_reference ~seed) seeds
  in
  check_bool "every parallel instance matches the reference" true
    (List.for_all Fun.id results)

(* Regression: fiber ids are allocated per engine. With the old
   module-level counter, interleaved spawns against two engines drew from
   one sequence (1,3,5… / 2,4,6…) and a second engine never started at
   1. *)
let test_fiber_ids_per_engine () =
  let a = Engine.create () and b = Engine.create () in
  let ids_a = ref [] and ids_b = ref [] in
  for _ = 1 to 5 do
    ids_a := Fiber.id (Fiber.spawn ~engine:a (fun () -> ())) :: !ids_a;
    ids_b := Fiber.id (Fiber.spawn ~engine:b (fun () -> ())) :: !ids_b
  done;
  Alcotest.(check (list int))
    "first engine dense from 1" [ 1; 2; 3; 4; 5 ] (List.rev !ids_a);
  Alcotest.(check (list int))
    "interleaved second engine identical" [ 1; 2; 3; 4; 5 ] (List.rev !ids_b)

(* A server spawns a fiber per request; the process must hold only the
   live ones, and pruning finished fibers must not let a parked one escape
   a later kill. *)
let test_process_keeps_only_live_fibers () =
  let open Tandem_os in
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~node:1 ~id:0 in
  let process =
    Process.create engine ~pid:{ Ids.node = 1; cpu = 0; serial = 1 } ~name:"P" ~cpu
  in
  let killed = ref false and cleaned_up = ref false in
  Process.start process (fun process ->
      Fun.protect
        ~finally:(fun () -> cleaned_up := true)
        (fun () ->
          try ignore (Process.receive process)
          with Fiber.Killed as e ->
            killed := true;
            raise e));
  for _ = 1 to 100_000 do
    Process.spawn_fiber process (fun () -> ())
  done;
  let words = Obj.reachable_words (Obj.repr process) in
  check_bool
    (Printf.sprintf "process holds O(live) fibers (%d words)" words)
    true (words < 20_000);
  Process.kill process;
  check_bool "parked fiber discontinued with Killed" true !killed;
  check_bool "parked fiber's cleanup ran" true !cleaned_up

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_sim"
    [
      ("sim_time", [ Alcotest.test_case "units" `Quick test_time_units ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split streams" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
        ]
        @ qcheck [ prop_rng_bounds; prop_rng_range ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "pending excludes tombstones" `Quick
            test_engine_pending_excludes_tombstones;
          Alcotest.test_case "stale handle is a no-op" `Quick
            test_engine_stale_handle_is_noop;
          Alcotest.test_case "mass cancel reclaims" `Quick
            test_engine_mass_cancel_reclaims;
        ]
        @ qcheck [ prop_engine_matches_reference ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep sequence" `Quick test_fiber_sleep_sequence;
          Alcotest.test_case "kill stops execution" `Quick test_fiber_kill_stops_execution;
          Alcotest.test_case "resume once" `Quick test_fiber_resume_once;
          Alcotest.test_case "exception escapes" `Quick test_fiber_exception_escapes;
          Alcotest.test_case "suspend_until winner cancels timer" `Quick
            test_suspend_until_winner_cancels_timer;
          Alcotest.test_case "suspend_until times out" `Quick
            test_suspend_until_times_out;
          Alcotest.test_case "ids are per engine" `Quick
            test_fiber_ids_per_engine;
          Alcotest.test_case "process keeps only live fibers" `Quick
            test_process_keeps_only_live_fibers;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "task order independent of jobs" `Quick
            test_pool_map_order;
          Alcotest.test_case "chunked draining keeps order" `Quick
            test_pool_chunked;
          Alcotest.test_case "edge sizes" `Quick test_pool_edge_sizes;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "engine property under parallel instances"
            `Quick test_engine_reference_parallel_instances;
        ]
        @ qcheck [ prop_pool_matches_serial ] );
      ( "fiber_mutex",
        [
          Alcotest.test_case "serializes" `Quick test_mutex_serializes;
          Alcotest.test_case "released on exception" `Quick test_mutex_released_on_exception;
          Alcotest.test_case "killed waiter passes ownership" `Quick
            test_mutex_killed_waiter_passes_ownership;
        ] );
      ( "trace",
        [
          Alcotest.test_case "filtering" `Quick test_trace_filtering;
          Alcotest.test_case "wildcard" `Quick test_trace_wildcard;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "samples" `Quick test_metrics_samples;
          Alcotest.test_case "family equals string-keyed" `Quick
            test_metrics_family_equals_string_keyed;
        ]
        @ qcheck [ prop_percentile_bounds ] );
    ]
