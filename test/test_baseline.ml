(* Tests for the conventional WAL + halt/restart transaction manager. *)

open Tandem_sim
open Tandem_db
open Tandem_baseline

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let accounts_def =
  Schema.define ~name:"ACCOUNT" ~organization:Schema.Key_sequenced ~degree:8
    ~partitions:[ { Schema.low_key = Key.min_key; node = 1; volume = "$D" } ]
    ()

let make () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume name =
    Tandem_disk.Volume.create engine ~metrics ~name
      ~access_time:(Sim_time.milliseconds 25)
  in
  let tm =
    Wal_tm.create ~engine ~metrics ~data_volume:(volume "$DATA")
      ~log_volume:(volume "$LOG") ()
  in
  Wal_tm.add_file tm accounts_def;
  Wal_tm.load_file tm ~file:"ACCOUNT"
    (List.init 20 (fun i ->
         (Key.of_int i, Record.encode [ ("balance", "1000") ])));
  (engine, tm)

let balance tm account =
  List.assoc_opt (Key.of_int account) (Wal_tm.file_contents tm ~file:"ACCOUNT")
  |> Fun.flip Option.bind (fun payload -> Record.int_field payload "balance")

let transfer tm ~from_account ~to_account ~amount =
  match Wal_tm.begin_transaction tm with
  | Error `Unavailable -> `Unavailable
  | Ok tx -> (
      let add account delta =
        match Wal_tm.read tm tx ~file:"ACCOUNT" (Key.of_int account) with
        | Ok (Some payload) ->
            let current =
              Option.value ~default:0 (Record.int_field payload "balance")
            in
            Wal_tm.update tm tx ~file:"ACCOUNT" (Key.of_int account)
              (Record.set_field payload "balance" (string_of_int (current + delta)))
        | Ok None -> Error `Not_found
        | Error `Lock_timeout -> Error `Lock_timeout
        | Error `Halted -> Error `Halted
      in
      match add from_account (-amount) with
      | Error _ ->
          Wal_tm.abort tm tx;
          `Aborted
      | Ok () -> (
          match add to_account amount with
          | Error _ ->
              Wal_tm.abort tm tx;
              `Aborted
          | Ok () -> (
              match Wal_tm.commit tm tx with
              | Ok () -> `Committed
              | Error `Halted -> `Lost)))

let test_commit_and_abort () =
  let engine, tm = make () in
  let outcomes = ref [] in
  ignore
    (Fiber.spawn (fun () ->
         outcomes := transfer tm ~from_account:0 ~to_account:1 ~amount:100 :: !outcomes;
         (* A deliberate abort leaves no trace. *)
         (match Wal_tm.begin_transaction tm with
         | Ok tx ->
             (match
                Wal_tm.read tm tx ~file:"ACCOUNT" (Key.of_int 2)
              with
             | Ok (Some payload) ->
                 ignore
                   (Wal_tm.update tm tx ~file:"ACCOUNT" (Key.of_int 2)
                      (Record.set_field payload "balance" "0"))
             | _ -> ());
             Wal_tm.abort tm tx
         | Error `Unavailable -> Alcotest.fail "should be available")));
  Engine.run engine;
  Alcotest.(check (list (of_pp Fmt.nop))) "committed" [ `Committed ] !outcomes;
  Alcotest.(check (option int)) "debit" (Some 900) (balance tm 0);
  Alcotest.(check (option int)) "credit" (Some 1_100) (balance tm 1);
  Alcotest.(check (option int)) "abort undone" (Some 1_000) (balance tm 2)

let test_wal_forces_per_update () =
  let engine, tm = make () in
  ignore
    (Fiber.spawn (fun () ->
         ignore (transfer tm ~from_account:0 ~to_account:1 ~amount:10)));
  Engine.run engine;
  (* Two updates + one commit record = three forced log writes. *)
  check_int "forced writes" 3 (Wal_tm.forced_log_writes tm)

let test_crash_halts_and_restart_recovers () =
  let engine, tm = make () in
  ignore
    (Fiber.spawn (fun () ->
         ignore (transfer tm ~from_account:0 ~to_account:1 ~amount:100)));
  Engine.run engine;
  (* Open a transaction that will be in flight at the crash. *)
  let in_flight_outcome = ref None in
  ignore
    (Fiber.spawn (fun () ->
         in_flight_outcome :=
           Some (transfer tm ~from_account:2 ~to_account:3 ~amount:500)));
  (* Crash while that transfer is between its updates. *)
  ignore
    (Engine.schedule_after engine (Sim_time.milliseconds 60) (fun () ->
         Wal_tm.crash tm));
  Engine.run engine;
  check_bool "halted" false (Wal_tm.is_available tm);
  check_bool "in-flight lost or aborted" true
    (match !in_flight_outcome with
    | Some (`Committed) -> false
    | _ -> true);
  (* New work is refused while halted. *)
  (match Wal_tm.begin_transaction tm with
  | Error `Unavailable -> ()
  | Ok _ -> Alcotest.fail "accepted work while halted");
  (* Restart: committed work survives, the loser is gone. *)
  let recovered = ref false in
  Wal_tm.restart tm ~on_done:(fun () -> recovered := true);
  Engine.run engine;
  check_bool "recovered" true !recovered;
  check_bool "available again" true (Wal_tm.is_available tm);
  Alcotest.(check (option int)) "winner redone (debit)" (Some 900) (balance tm 0);
  Alcotest.(check (option int)) "winner redone (credit)" (Some 1_100) (balance tm 1);
  Alcotest.(check (option int)) "loser gone" (Some 1_000) (balance tm 2);
  Alcotest.(check (option int)) "loser gone (other leg)" (Some 1_000) (balance tm 3);
  check_bool "outage accounted" true (Wal_tm.unavailable_total tm >= Sim_time.seconds 5)

let test_restart_time_grows_with_log () =
  let run transactions =
    let engine, tm = make () in
    ignore
      (Fiber.spawn (fun () ->
           for i = 0 to transactions - 1 do
             ignore
               (transfer tm
                  ~from_account:(i mod 10)
                  ~to_account:(10 + (i mod 10))
                  ~amount:1)
           done));
    Engine.run engine;
    Wal_tm.crash tm;
    let start = Engine.now engine in
    Wal_tm.restart tm ~on_done:(fun () -> ());
    Engine.run engine;
    Sim_time.diff (Engine.now engine) start
  in
  let short = run 5 and long = run 60 in
  check_bool "longer log, longer restart" true (long > short)

let () =
  Alcotest.run "tandem_baseline"
    [
      ( "wal_tm",
        [
          Alcotest.test_case "commit and abort" `Quick test_commit_and_abort;
          Alcotest.test_case "wal forces per update" `Quick test_wal_forces_per_update;
          Alcotest.test_case "crash halts, restart recovers" `Quick
            test_crash_halts_and_restart_recovers;
          Alcotest.test_case "restart time grows with log" `Quick
            test_restart_time_grows_with_log;
        ] );
    ]
