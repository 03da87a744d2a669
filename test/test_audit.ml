(* Tests for audit trails, the Monitor Audit Trail and the AUDITPROCESS. *)

open Tandem_sim
open Tandem_audit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_volume () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  ( engine,
    Tandem_disk.Volume.create engine ~metrics ~name:"$AUDITVOL"
      ~access_time:(Sim_time.milliseconds 25) )

let image ?(volume = "$DATA") ?(file = "F") ~key ~before ~after () =
  { Audit_record.volume; file; key; before; after }

let test_trail_append_and_filter () =
  let _, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  let s0 =
    Audit_trail.append trail ~transid:"1.0.1"
      (image ~key:"a" ~before:None ~after:(Some "v1") ())
  in
  let s1 =
    Audit_trail.append trail ~transid:"1.0.2"
      (image ~key:"b" ~before:None ~after:(Some "w1") ())
  in
  let s2 =
    Audit_trail.append trail ~transid:"1.0.1"
      (image ~key:"a" ~before:(Some "v1") ~after:(Some "v2") ())
  in
  Alcotest.(check (list int)) "dense sequence" [ 0; 1; 2 ] [ s0; s1; s2 ];
  let tx1 = Audit_trail.records_for trail ~transid:"1.0.1" in
  check_int "two records for tx1" 2 (List.length tx1);
  Alcotest.(check (list int))
    "ascending" [ 0; 2 ]
    (List.map (fun r -> r.Audit_record.sequence) tx1);
  check_int "one for tx2" 1
    (List.length (Audit_trail.records_for trail ~transid:"1.0.2"))

let test_trail_force_and_crash () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  ignore
    (Audit_trail.append trail ~transid:"t1"
       (image ~key:"a" ~before:None ~after:(Some "1") ()));
  ignore
    (Audit_trail.append trail ~transid:"t1"
       (image ~key:"b" ~before:None ~after:(Some "2") ()));
  check_int "nothing forced yet" (-1) (Audit_trail.forced_up_to trail);
  ignore (Fiber.spawn (fun () -> Audit_trail.force trail));
  Engine.run engine;
  check_int "forced through 1" 1 (Audit_trail.forced_up_to trail);
  check_int "one physical forced write" 1
    (Tandem_disk.Volume.forced_writes volume);
  (* Append two more, force only later; crash loses the unforced tail. *)
  ignore
    (Audit_trail.append trail ~transid:"t2"
       (image ~key:"c" ~before:None ~after:(Some "3") ()));
  Audit_trail.crash trail;
  check_int "unforced lost" 0
    (List.length (Audit_trail.records_for trail ~transid:"t2"));
  check_int "forced survive" 2
    (List.length (Audit_trail.records_for trail ~transid:"t1"));
  (* Sequence numbering continues without holes against the survivors. *)
  let s = Audit_trail.append trail ~transid:"t3" (image ~key:"d" ~before:None ~after:None ()) in
  check_int "sequence reused" 2 s

let test_trail_force_idempotent () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  ignore
    (Audit_trail.append trail ~transid:"t"
       (image ~key:"a" ~before:None ~after:(Some "1") ()));
  ignore
    (Fiber.spawn (fun () ->
         Audit_trail.force trail;
         Audit_trail.force trail));
  Engine.run engine;
  check_int "second force free" 1 (Tandem_disk.Volume.forced_writes volume)

let test_trail_rollover_and_purge () =
  let _, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" ~records_per_file:5 () in
  for i = 0 to 22 do
    ignore
      (Audit_trail.append trail ~transid:"t"
         (image ~key:(string_of_int i) ~before:None ~after:(Some "x") ()))
  done;
  check_bool "several files" true (Audit_trail.file_count trail >= 4);
  let purged = Audit_trail.purge_files_before trail ~sequence:12 in
  check_bool "some purged" true (purged >= 2);
  (* Recent records are still there. *)
  check_bool "recent kept" true
    (List.exists
       (fun r -> r.Audit_record.sequence = 20)
       (Audit_trail.records_for trail ~transid:"t"))

let test_records_from_reads_only_forced () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  for i = 0 to 4 do
    ignore
      (Audit_trail.append trail ~transid:"t"
         (image ~key:(string_of_int i) ~before:None ~after:(Some "x") ()))
  done;
  ignore (Fiber.spawn (fun () -> Audit_trail.force trail));
  Engine.run engine;
  for i = 5 to 7 do
    ignore
      (Audit_trail.append trail ~transid:"t"
         (image ~key:(string_of_int i) ~before:None ~after:(Some "x") ()))
  done;
  check_int "rollforward sees forced only" 3
    (List.length (Audit_trail.records_from trail ~sequence:2))

let test_group_commit_batches_forces () =
  let engine, volume = make_volume () in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  (* Eight fibers, each appending one record then forcing, all at once: the
     daemon must satisfy them with far fewer physical writes. *)
  let done_count = ref 0 in
  for i = 0 to 7 do
    ignore
      (Fiber.spawn (fun () ->
           ignore
             (Audit_trail.append trail ~transid:(Printf.sprintf "t%d" i)
                (image ~key:(string_of_int i) ~before:None ~after:(Some "v") ()));
           Audit_trail.force trail;
           incr done_count))
  done;
  Engine.run engine;
  check_int "all forcers satisfied" 8 !done_count;
  check_bool "batched into few physical writes" true
    (Tandem_disk.Volume.forced_writes volume <= 3);
  check_int "everything durable" 7 (Audit_trail.forced_up_to trail)

let test_force_daemon_killed_requester () =
  let engine, volume = make_volume () in
  let daemon = Tandem_disk.Force_daemon.create volume in
  let survivor_done = ref false in
  let victim =
    Fiber.spawn (fun () ->
        Tandem_disk.Force_daemon.force daemon;
        Alcotest.fail "victim must not resume")
  in
  ignore
    (Fiber.spawn (fun () ->
         Tandem_disk.Force_daemon.force daemon;
         survivor_done := true));
  Fiber.kill victim;
  Engine.run engine;
  check_bool "survivor forced" true !survivor_done;
  check_bool "daemon still counts" true
    (Tandem_disk.Force_daemon.physical_forces daemon >= 1)

let test_monitor_trail () =
  let engine, volume = make_volume () in
  let monitor = Monitor_trail.create volume in
  ignore
    (Fiber.spawn (fun () ->
         Monitor_trail.record monitor ~transid:"1.0.1" Monitor_trail.Committed;
         Monitor_trail.record monitor ~transid:"1.0.2" Monitor_trail.Aborted));
  Engine.run engine;
  (match Monitor_trail.disposition_of monitor ~transid:"1.0.1" with
  | Some Monitor_trail.Committed -> ()
  | _ -> Alcotest.fail "commit recorded");
  (match Monitor_trail.disposition_of monitor ~transid:"1.0.3" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown transid");
  check_int "commit count" 1 (Monitor_trail.count monitor Monitor_trail.Committed);
  check_int "abort count" 1 (Monitor_trail.count monitor Monitor_trail.Aborted);
  check_int "forced writes" 2 (Tandem_disk.Volume.forced_writes volume);
  Alcotest.check_raises "disposition immutable"
    (Invalid_argument "Monitor_trail.record: duplicate disposition for 1.0.1")
    (fun () ->
      ignore (Fiber.spawn (fun () ->
          Monitor_trail.record monitor ~transid:"1.0.1" Monitor_trail.Aborted));
      Engine.run engine)

let test_monitor_crash_keeps_forced_history () =
  let engine, volume = make_volume () in
  let monitor = Monitor_trail.create volume in
  ignore
    (Fiber.spawn (fun () ->
         Monitor_trail.record monitor ~transid:"1.0.1" Monitor_trail.Committed;
         Monitor_trail.record monitor ~transid:"1.0.2" Monitor_trail.Aborted;
         Monitor_trail.record monitor ~transid:"1.0.3" Monitor_trail.Committed));
  Engine.run engine;
  Monitor_trail.record_unforced monitor ~transid:"1.0.4" Monitor_trail.Committed;
  Monitor_trail.record_unforced monitor ~transid:"1.0.5" Monitor_trail.Aborted;
  Monitor_trail.record_unforced monitor ~transid:"1.0.6" Monitor_trail.Committed;
  check_int "three unforced dispositions lost" 3 (Monitor_trail.crash monitor);
  Alcotest.(check (list (pair string bool)))
    "entries are the forced history, in order"
    [ ("1.0.1", true); ("1.0.2", false); ("1.0.3", true) ]
    (List.map
       (fun (transid, d) -> (transid, d = Monitor_trail.Committed))
       (Monitor_trail.entries monitor));
  check_int "forced commits counted" 2
    (Monitor_trail.count monitor Monitor_trail.Committed);
  check_int "forced aborts counted" 1
    (Monitor_trail.count monitor Monitor_trail.Aborted);
  check_bool "a lost disposition is unknown" true
    (Monitor_trail.disposition_of monitor ~transid:"1.0.5" = None);
  check_int "nothing left to lose" 0 (Monitor_trail.crash monitor)

let test_monitor_force_carries_unforced () =
  let engine, volume = make_volume () in
  let monitor = Monitor_trail.create volume in
  Monitor_trail.record_unforced monitor ~transid:"1.0.1" Monitor_trail.Committed;
  ignore
    (Fiber.spawn (fun () ->
         Monitor_trail.record monitor ~transid:"1.0.2" Monitor_trail.Aborted));
  (* Recorded while that force is on its way to the disc. *)
  ignore
    (Engine.schedule_after engine (Sim_time.microseconds 1) (fun () ->
         Monitor_trail.record_unforced monitor ~transid:"1.0.3"
           Monitor_trail.Committed));
  Engine.run engine;
  check_int "only the in-flight record is lost" 1 (Monitor_trail.crash monitor);
  check_bool "the earlier record survives" true
    (Monitor_trail.disposition_of monitor ~transid:"1.0.1"
    = Some Monitor_trail.Committed);
  check_bool "the in-flight record is gone" true
    (Monitor_trail.disposition_of monitor ~transid:"1.0.3" = None)

let test_audit_process_round_trip () =
  let net = Tandem_os.Net.create () in
  let node = Tandem_os.Net.add_node net ~id:1 ~cpus:4 in
  let engine = Tandem_os.Net.engine net in
  let volume =
    Tandem_disk.Volume.create engine ~metrics:(Tandem_os.Net.metrics net)
      ~name:"$AUDITVOL" ~access_time:(Sim_time.milliseconds 25)
  in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  let audit_process =
    Audit_process.spawn ~net ~node ~trail ~name:"$AUDIT" ~primary_cpu:0
      ~backup_cpu:1
  in
  let finished = ref false in
  ignore
    (Tandem_os.Node.spawn node ~cpu:2 (fun process ->
         (match
            Audit_process.append_images net ~self:process ~node:1 ~name:"$AUDIT"
              ~transid:"1.2.3"
              [
                image ~key:"a" ~before:None ~after:(Some "v") ();
                image ~key:"b" ~before:(Some "o") ~after:(Some "n") ();
              ]
          with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "append failed");
         (match Audit_process.force net ~self:process ~node:1 ~name:"$AUDIT" with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "force failed");
         finished := true));
  Engine.run engine;
  check_bool "client finished" true !finished;
  check_int "two records in trail" 2
    (List.length (Audit_trail.records_for trail ~transid:"1.2.3"));
  check_int "forced" 1 (Audit_trail.forced_up_to trail);
  check_bool "audit process up" true (Audit_process.is_up audit_process)

let test_audit_process_survives_takeover () =
  let net = Tandem_os.Net.create () in
  let node = Tandem_os.Net.add_node net ~id:1 ~cpus:4 in
  let engine = Tandem_os.Net.engine net in
  let volume =
    Tandem_disk.Volume.create engine ~metrics:(Tandem_os.Net.metrics net)
      ~name:"$AUDITVOL" ~access_time:(Sim_time.milliseconds 25)
  in
  let trail = Audit_trail.create volume ~name:"$AUDIT" () in
  let _ =
    Audit_process.spawn ~net ~node ~trail ~name:"$AUDIT" ~primary_cpu:0
      ~backup_cpu:1
  in
  let ok = ref 0 in
  ignore
    (Tandem_os.Node.spawn node ~cpu:2 (fun process ->
         let append key =
           match
             Audit_process.append_images net ~self:process ~node:1
               ~name:"$AUDIT" ~transid:"t"
               [ image ~key ~before:None ~after:(Some "v") () ]
           with
           | Ok () -> incr ok
           | Error _ -> ()
         in
         append "before-failure";
         Tandem_os.Node.fail_cpu node 0;
         (* The retry inside call_name rides out the takeover window. *)
         append "after-failure"));
  Engine.run engine;
  check_int "both appends acknowledged" 2 !ok;
  check_int "both records present" 2
    (List.length (Audit_trail.records_for trail ~transid:"t"))

let () =
  Alcotest.run "tandem_audit"
    [
      ( "audit_trail",
        [
          Alcotest.test_case "append and filter" `Quick test_trail_append_and_filter;
          Alcotest.test_case "force and crash" `Quick test_trail_force_and_crash;
          Alcotest.test_case "force idempotent" `Quick test_trail_force_idempotent;
          Alcotest.test_case "rollover and purge" `Quick test_trail_rollover_and_purge;
          Alcotest.test_case "records_from forced only" `Quick
            test_records_from_reads_only_forced;
          Alcotest.test_case "group commit batches" `Quick
            test_group_commit_batches_forces;
          Alcotest.test_case "daemon survives killed requester" `Quick
            test_force_daemon_killed_requester;
        ] );
      ( "monitor_trail",
        [
          Alcotest.test_case "dispositions" `Quick test_monitor_trail;
          Alcotest.test_case "crash keeps the forced history" `Quick
            test_monitor_crash_keeps_forced_history;
          Alcotest.test_case "a force carries earlier records" `Quick
            test_monitor_force_carries_unforced;
        ] );
      ( "audit_process",
        [
          Alcotest.test_case "round trip" `Quick test_audit_process_round_trip;
          Alcotest.test_case "survives takeover" `Quick
            test_audit_process_survives_takeover;
        ] );
    ]
