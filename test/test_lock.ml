(* Tests for the decentralized per-volume lock table. *)

open Tandem_sim
open Tandem_lock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tid seq = Transid.make ~home:1 ~cpu:0 ~seq

let check_owner message expected actual =
  Alcotest.(check (option string))
    message
    (Option.map Transid.to_string expected)
    (Option.map Transid.to_string actual)

let make () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  (engine, Lock_table.create engine ~metrics ~name:"$DATA")

let record file key = Lock_table.Record_lock { file; key }

let timeout = Sim_time.seconds 1

let test_grant_and_conflict () =
  let engine, locks = make () in
  let results = ref [] in
  (* Bind the acquire result before touching the log: the fiber may suspend
     inside acquire, and a stale dereference of the log would lose entries
     appended meanwhile. *)
  let note name result = results := (name, result) :: !results in
  ignore
    (Fiber.spawn (fun () ->
         let r = Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a") in
         note "t1" r));
  ignore
    (Fiber.spawn (fun () ->
         let r = Lock_table.acquire locks ~owner:(tid 2) ~timeout (record "F" "a") in
         note "t2" r));
  Engine.run engine;
  (* t1 granted instantly; t2 timed out after 1s (never released). *)
  (match List.assoc "t1" !results with
  | `Granted -> ()
  | `Timeout -> Alcotest.fail "t1 should be granted");
  (match List.assoc "t2" !results with
  | `Timeout -> ()
  | `Granted -> Alcotest.fail "t2 should time out");
  check_int "one lock held" 1 (Lock_table.locked_count locks);
  check_owner "t1 still holds" (Some (tid 1))
    (Lock_table.holder locks (record "F" "a"))

let test_release_wakes_waiter () =
  let engine, locks = make () in
  let t2_result = ref None in
  ignore
    (Fiber.spawn (fun () ->
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a"));
         Fiber.sleep engine (Sim_time.milliseconds 100);
         Lock_table.release_all locks ~owner:(tid 1)));
  ignore
    (Fiber.spawn (fun () ->
         t2_result :=
           Some (Lock_table.acquire locks ~owner:(tid 2) ~timeout (record "F" "a"))));
  Engine.run engine;
  (match !t2_result with
  | Some `Granted -> ()
  | _ -> Alcotest.fail "t2 should be granted after release");
  check_owner "t2 holds now" (Some (tid 2))
    (Lock_table.holder locks (record "F" "a"));
  check_bool "wait took the release delay" true
    (Engine.now engine >= Sim_time.milliseconds 100)

let test_reacquire_is_noop () =
  let engine, locks = make () in
  ignore
    (Fiber.spawn (fun () ->
         (match Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a") with
         | `Granted -> ()
         | `Timeout -> Alcotest.fail "first acquire");
         match Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a") with
         | `Granted -> ()
         | `Timeout -> Alcotest.fail "reacquire should be immediate"));
  Engine.run engine;
  check_int "one lock entry" 1 (Lock_table.locked_count locks)

let test_file_lock_hierarchy () =
  let engine, locks = make () in
  let log = ref [] in
  let note name result = log := (name, result) :: !log in
  ignore
    (Fiber.spawn (fun () ->
         let r = Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a") in
         note "t1-rec" r));
  ignore
    (Fiber.spawn (fun () ->
         let r = Lock_table.acquire locks ~owner:(tid 2) ~timeout (Lock_table.File_lock "F") in
         note "t2-file" r));
  ignore
    (Fiber.spawn (fun () ->
         let r = Lock_table.acquire locks ~owner:(tid 2) ~timeout (record "G" "x") in
         note "t2-other" r));
  Engine.run engine;
  (match List.assoc "t1-rec" !log with
  | `Granted -> ()
  | `Timeout -> Alcotest.fail "record lock");
  (* File lock conflicts with another owner's record lock in that file. *)
  (match List.assoc "t2-file" !log with
  | `Timeout -> ()
  | `Granted -> Alcotest.fail "file lock should conflict");
  (* A different file is unaffected. *)
  match List.assoc "t2-other" !log with
  | `Granted -> ()
  | `Timeout -> Alcotest.fail "other file should be free"

let test_file_lock_blocks_records () =
  let engine, locks = make () in
  let t2 = ref None in
  ignore
    (Fiber.spawn (fun () ->
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (Lock_table.File_lock "F"));
         (* The file-lock holder's own record access is implied. *)
         match Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "k") with
         | `Granted -> ()
         | `Timeout -> Alcotest.fail "own record under file lock"));
  ignore
    (Fiber.spawn (fun () ->
         t2 := Some (Lock_table.acquire locks ~owner:(tid 2) ~timeout (record "F" "k"))));
  Engine.run engine;
  match !t2 with
  | Some `Timeout -> ()
  | _ -> Alcotest.fail "record under foreign file lock should block"

let test_release_all_releases_everything () =
  let engine, locks = make () in
  ignore
    (Fiber.spawn (fun () ->
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a"));
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "b"));
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (Lock_table.File_lock "G"))));
  Engine.run engine;
  check_int "three locks" 3 (Lock_table.locked_count locks);
  check_int "t1 owns three" 3 (List.length (Lock_table.locks_of locks ~owner:(tid 1)));
  Lock_table.release_all locks ~owner:(tid 1);
  check_int "empty" 0 (Lock_table.locked_count locks);
  check_bool "holder gone" true (Lock_table.holder locks (record "F" "a") = None)

let test_fifo_wake_order () =
  let engine, locks = make () in
  let order = ref [] in
  ignore
    (Fiber.spawn (fun () ->
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a"))));
  let waiter seq delay =
    let owner = tid seq in
    ignore
      (Fiber.spawn (fun () ->
           Fiber.sleep engine delay;
           match
             Lock_table.acquire locks ~owner ~timeout:(Sim_time.seconds 10)
               (record "F" "a")
           with
           | `Granted ->
               order := seq :: !order;
               Lock_table.release_all locks ~owner
           | `Timeout -> Alcotest.fail "waiter timed out"))
  in
  waiter 2 (Sim_time.milliseconds 1);
  waiter 3 (Sim_time.milliseconds 2);
  ignore
    (Engine.schedule_at engine (Sim_time.milliseconds 50) (fun () ->
         Lock_table.release_all locks ~owner:(tid 1)));
  Engine.run engine;
  Alcotest.(check (list int)) "fifo order" [ 2; 3 ] (List.rev !order)

let test_deadlock_resolved_by_timeout () =
  (* Classic crossing order: t1 takes a then b; t2 takes b then a. *)
  let engine, locks = make () in
  let outcomes = ref [] in
  let tx seq first second =
    let name = tid seq in
    ignore
      (Fiber.spawn (fun () ->
           (match
              Lock_table.acquire locks ~owner:name ~timeout (record "F" first)
            with
           | `Granted -> ()
           | `Timeout -> Alcotest.fail "first lock should be granted");
           Fiber.sleep engine (Sim_time.milliseconds 10);
           let result =
             Lock_table.acquire locks ~owner:name ~timeout (record "F" second)
           in
           outcomes := (name, result) :: !outcomes;
           (* A timed-out transaction restarts: release everything. *)
           match result with
           | `Timeout -> Lock_table.release_all locks ~owner:name
           | `Granted -> ()))
  in
  tx 1 "a" "b";
  tx 2 "b" "a";
  Engine.run engine;
  let timeouts =
    List.length (List.filter (fun (_, r) -> r = `Timeout) !outcomes)
  in
  (* At least one of the two must break the deadlock by timeout, and the
     other then proceeds. *)
  check_bool "deadlock broken" true (timeouts >= 1);
  check_bool "progress made" true
    (List.exists (fun (_, r) -> r = `Granted) !outcomes
    || timeouts = 2)

let test_reset_drops_everything () =
  let engine, locks = make () in
  ignore
    (Fiber.spawn (fun () ->
         ignore (Lock_table.acquire locks ~owner:(tid 1) ~timeout (record "F" "a"))));
  Engine.run engine;
  Lock_table.reset locks;
  check_int "no locks" 0 (Lock_table.locked_count locks);
  check_int "no waiters" 0 (Lock_table.waiting_count locks)

let prop_exclusivity =
  QCheck.Test.make ~name:"no two owners ever hold the same record" ~count:60
    QCheck.(list (pair (int_bound 4) (int_bound 5)))
    (fun requests ->
      let engine, locks = make () in
      let violation = ref false in
      List.iteri
        (fun i (owner_index, key_index) ->
          let owner = tid owner_index in
          let key = Printf.sprintf "k%d" key_index in
          ignore
            (Fiber.spawn (fun () ->
                 Fiber.sleep engine (Sim_time.milliseconds i);
                 match
                   Lock_table.acquire locks ~owner
                     ~timeout:(Sim_time.milliseconds 50) (record "F" key)
                 with
                 | `Granted ->
                     (match Lock_table.holder locks (record "F" key) with
                     | Some h when not (Transid.equal h owner) -> violation := true
                     | Some _ -> ()
                     | None -> violation := true);
                     Fiber.sleep engine (Sim_time.milliseconds 20);
                     Lock_table.release_all locks ~owner
                 | `Timeout -> ())))
        requests;
      Engine.run engine;
      (not !violation) && Lock_table.locked_count locks = 0)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_lock"
    [
      ( "lock_table",
        [
          Alcotest.test_case "grant and conflict" `Quick test_grant_and_conflict;
          Alcotest.test_case "release wakes waiter" `Quick test_release_wakes_waiter;
          Alcotest.test_case "reacquire is noop" `Quick test_reacquire_is_noop;
          Alcotest.test_case "file lock hierarchy" `Quick test_file_lock_hierarchy;
          Alcotest.test_case "file lock blocks records" `Quick test_file_lock_blocks_records;
          Alcotest.test_case "release all" `Quick test_release_all_releases_everything;
          Alcotest.test_case "fifo wake order" `Quick test_fifo_wake_order;
          Alcotest.test_case "deadlock by timeout" `Quick test_deadlock_resolved_by_timeout;
          Alcotest.test_case "reset" `Quick test_reset_drops_everything;
        ]
        @ qcheck [ prop_exclusivity ] );
    ]
