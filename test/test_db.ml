(* Tests for the data-base manager layer: block store, B+-tree, relative and
   entry-sequenced files, secondary indices, schema and partitioning. *)

open Tandem_sim
open Tandem_db

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Stores used purely as data structures run uncharged: no fiber context is
   needed and volumes never sleep. *)
let make_store ?(cache = 64) () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$DATA"
      ~access_time:(Sim_time.milliseconds 25)
  in
  let store = Store.create volume ~cache_capacity:cache in
  Store.set_charging store false;
  store

let expect_ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected error result"

(* ------------------------------------------------------------------ *)
(* Record codec *)

let test_record_codec_round_trip () =
  let fields = [ ("balance", "100"); ("branch", "SF"); ("note", "") ] in
  Alcotest.(check (list (pair string string)))
    "round trip" fields
    (Record.decode (Record.encode fields));
  check_string "empty" "" (Record.encode []);
  Alcotest.(check (list (pair string string))) "decode empty" []
    (Record.decode "")

let test_record_field_ops () =
  let payload = Record.encode [ ("balance", "100"); ("branch", "SF") ] in
  Alcotest.(check (option string)) "field" (Some "SF")
    (Record.field payload "branch");
  Alcotest.(check (option int)) "int field" (Some 100)
    (Record.int_field payload "balance");
  let updated = Record.set_field payload "balance" "250" in
  Alcotest.(check (option int)) "updated" (Some 250)
    (Record.int_field updated "balance");
  let extended = Record.set_field payload "status" "open" in
  Alcotest.(check (option string)) "added" (Some "open")
    (Record.field extended "status")

let test_record_nested_encoding () =
  (* A whole encoded record carried inside a field of another. *)
  let inner = Record.encode [ ("descr", "rev B"); ("master", "2") ] in
  let outer = Record.encode [ ("target", "4"); ("data", inner) ] in
  Alcotest.(check (option string)) "inner intact" (Some inner)
    (Record.field outer "data");
  Alcotest.(check (option string)) "inner field recoverable" (Some "rev B")
    (Option.bind (Record.field outer "data") (fun p -> Record.field p "descr"))

let test_record_malformed_rejected () =
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Record.decode: missing length delimiter") (fun () ->
      ignore (Record.decode "notarecord"))

(* [field] and [int_field] scan in place; they must answer exactly as the
   decode-based definitions do, raised exceptions included, on well-formed
   payloads and on ones cut, grown or scrambled into malformed ones. *)
let record_payload_gen =
  QCheck.Gen.(
    let name = oneofl [ ""; "a"; "b"; "ab"; "balance" ] in
    let value =
      oneof
        [
          map string_of_int int;
          oneofl [ ""; "-"; "-0"; "007"; "+5"; "0x1f"; "1_000"; " 7"; "12a" ];
          string_size ~gen:(oneofl [ '0'; '9'; '-'; ':'; 'a' ]) (0 -- 24);
        ]
    in
    let encoded = map Record.encode (list_size (0 -- 4) (pair name value)) in
    let alphabet = oneofl [ '0'; '1'; '2'; '9'; ':'; '-'; '+'; 'a'; 'x'; '_' ] in
    let mutate payload =
      let n = String.length payload in
      oneof
        [
          map (fun cut -> String.sub payload 0 (cut mod (n + 1))) nat;
          map2
            (fun at c ->
              let at = at mod (n + 1) in
              String.sub payload 0 at ^ String.make 1 c
              ^ String.sub payload at (n - at))
            nat alphabet;
          (if n = 0 then return payload
           else
             map2
               (fun at c -> String.mapi (fun i x -> if i = at mod n then c else x) payload)
               nat alphabet);
        ]
    in
    pair
      (frequency
         [
           (3, encoded);
           (4, encoded >>= mutate);
           (1, string_size ~gen:alphabet (0 -- 30));
         ])
      (oneofl [ ""; "a"; "b"; "ab"; "balance"; "zz" ]))

let prop_record_field_matches_decode =
  QCheck.Test.make ~name:"field and int_field agree with decode" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair string string) record_payload_gen)
    (fun (payload, name) ->
      let outcome f = match f () with v -> Ok v | exception e -> Error e in
      let decoded () = List.assoc_opt name (Record.decode payload) in
      outcome (fun () -> Record.field payload name) = outcome decoded
      && outcome (fun () -> Record.int_field payload name)
         = outcome (fun () -> Option.bind (decoded ()) int_of_string_opt))

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_alloc_read_write () =
  let store = make_store () in
  let content keys =
    Block_content.Btree_leaf
      {
        keys = Packed_keys.of_array keys;
        payloads = Array.map (fun k -> k ^ "!") keys;
        next_leaf = Block_content.no_leaf;
      }
  in
  let b0 = Store.alloc store (content [| "a" |]) in
  let b1 = Store.alloc store (content [| "b" |]) in
  check_bool "distinct blocks" true (b0 <> b1);
  (match Store.read store b0 with
  | Block_content.Btree_leaf { keys; _ } ->
      check_string "read back" "a" (Packed_keys.get keys 0)
  | _ -> Alcotest.fail "wrong content");
  Store.write store b0 (content [| "z" |]);
  (match Store.read store b0 with
  | Block_content.Btree_leaf { keys; _ } ->
      check_string "updated" "z" (Packed_keys.get keys 0)
  | _ -> Alcotest.fail "wrong content");
  Store.free store b0;
  Alcotest.check_raises "freed block" Not_found (fun () ->
      ignore (Store.read store b0))

let test_store_crash_loses_unflushed () =
  let store = make_store () in
  let content tag =
    Block_content.Relative_segment { base_slot = 0; slots = [| Some tag |] }
  in
  let b = Store.alloc store (content "v1") in
  Store.overwrite_disk_image store;
  Store.write store b (content "v2");
  (* v2 was never flushed: a double failure reverts to v1. *)
  Store.crash store;
  (match Store.read store b with
  | Block_content.Relative_segment { slots = [| Some v |]; _ } ->
      check_string "reverted to flushed image" "v1" v
  | _ -> Alcotest.fail "wrong content");
  (* Now flush before crashing: v3 survives. *)
  Store.write store b (content "v3");
  Store.flush_all store;
  Store.crash store;
  match Store.read store b with
  | Block_content.Relative_segment { slots = [| Some v |]; _ } ->
      check_string "flushed image survives" "v3" v
  | _ -> Alcotest.fail "wrong content"

let test_store_charging_counts_io () =
  (* With charging on, a cache miss must become a physical read; run inside
     a fiber so sleeps work. *)
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$DATA"
      ~access_time:(Sim_time.milliseconds 25)
  in
  let store = Store.create volume ~cache_capacity:2 in
  Store.set_charging store false;
  let content tag =
    Block_content.Relative_segment { base_slot = 0; slots = [| Some tag |] }
  in
  let blocks = List.init 4 (fun i -> Store.alloc store (content (string_of_int i))) in
  Store.set_charging store true;
  ignore
    (Fiber.spawn (fun () ->
         (* Touch all four blocks twice through a 2-block cache. *)
         List.iter (fun b -> ignore (Store.read store b)) blocks;
         List.iter (fun b -> ignore (Store.read store b)) blocks));
  Engine.run engine;
  check_bool "at least 8 misses" true (Store.cache_misses store >= 8);
  check_int "8 physical reads" 8 (Tandem_disk.Volume.reads volume);
  check_bool "time charged" true (Engine.now engine >= Sim_time.milliseconds 100)

let test_dirty_eviction_writes_back () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let volume =
    Tandem_disk.Volume.create engine ~metrics ~name:"$DATA"
      ~access_time:(Sim_time.milliseconds 25)
  in
  let store = Store.create volume ~cache_capacity:1 in
  Store.set_charging store false;
  let content tag =
    Block_content.Relative_segment { base_slot = 0; slots = [| Some tag |] }
  in
  let b0 = Store.alloc store (content "a") in
  let b1 = Store.alloc store (content "b") in
  Store.overwrite_disk_image store;
  Store.set_charging store true;
  ignore
    (Fiber.spawn (fun () ->
         Store.write store b0 (content "a2");
         (* Evicts dirty b0. *)
         ignore (Store.read store b1)));
  Engine.run engine;
  check_bool "write-back happened" true (Tandem_disk.Volume.writes volume >= 1);
  (* The write-back flushed a2: a crash keeps it. *)
  Store.set_charging store false;
  Store.crash store;
  match Store.read store b0 with
  | Block_content.Relative_segment { slots = [| Some v |]; _ } ->
      check_string "evicted dirty block was flushed" "a2" v
  | _ -> Alcotest.fail "wrong content"

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_lru_policy () =
  let cache = Tandem_disk.Cache.create ~capacity:2 in
  let miss b =
    match Tandem_disk.Cache.touch cache b with
    | `Miss e -> e
    | `Hit -> Alcotest.fail "expected miss"
  in
  let hit b =
    match Tandem_disk.Cache.touch cache b with
    | `Hit -> ()
    | `Miss _ -> Alcotest.fail "expected hit"
  in
  ignore (miss 1);
  ignore (miss 2);
  hit 1;
  (* 2 is now least-recently-used. *)
  (match miss 3 with
  | Some { Tandem_disk.Cache.block = 2; _ } -> ()
  | _ -> Alcotest.fail "expected eviction of block 2");
  hit 1;
  hit 3

let test_cache_dirty_tracking () =
  let cache = Tandem_disk.Cache.create ~capacity:2 in
  ignore (Tandem_disk.Cache.touch cache 1);
  Tandem_disk.Cache.mark_dirty cache 1;
  check_bool "dirty" true (Tandem_disk.Cache.is_dirty cache 1);
  Alcotest.(check (list int)) "dirty list" [ 1 ]
    (Tandem_disk.Cache.dirty_blocks cache);
  Tandem_disk.Cache.clean cache 1;
  check_bool "cleaned" false (Tandem_disk.Cache.is_dirty cache 1);
  (* Evicting a dirty block reports it dirty. *)
  Tandem_disk.Cache.mark_dirty cache 1;
  ignore (Tandem_disk.Cache.touch cache 2);
  match Tandem_disk.Cache.touch cache 3 with
  | `Miss (Some { Tandem_disk.Cache.block = 1; dirty = true }) -> ()
  | _ -> Alcotest.fail "expected dirty eviction of 1"

(* ------------------------------------------------------------------ *)
(* B+-tree *)

let make_tree ?(degree = 2) () =
  Btree.create (make_store ()) ~name:"T" ~degree

let test_btree_basic () =
  let tree = make_tree () in
  Alcotest.(check (option string)) "empty find" None (Btree.find tree "k");
  expect_ok (Btree.insert tree "b" "2");
  expect_ok (Btree.insert tree "a" "1");
  expect_ok (Btree.insert tree "c" "3");
  Alcotest.(check (option string)) "find a" (Some "1") (Btree.find tree "a");
  Alcotest.(check (option string)) "find c" (Some "3") (Btree.find tree "c");
  check_int "count" 3 (Btree.count tree);
  (match Btree.insert tree "a" "dup" with
  | Error `Duplicate -> ()
  | Ok () -> Alcotest.fail "duplicate accepted");
  check_string "update" "1" (expect_ok (Btree.update tree "a" "1'"));
  Alcotest.(check (option string)) "updated" (Some "1'") (Btree.find tree "a");
  check_string "delete returns before" "2" (expect_ok (Btree.delete tree "b"));
  Alcotest.(check (option string)) "deleted" None (Btree.find tree "b");
  check_int "count after delete" 2 (Btree.count tree);
  (match Btree.delete tree "b" with
  | Error `Not_found -> ()
  | Ok _ -> Alcotest.fail "double delete succeeded");
  expect_ok (Btree.check_invariants tree)

let test_btree_many_inserts_split () =
  let tree = make_tree ~degree:2 () in
  for i = 0 to 199 do
    expect_ok (Btree.insert tree (Key.of_int i) (string_of_int i))
  done;
  check_int "count" 200 (Btree.count tree);
  check_bool "tree grew" true (Btree.height tree > 1);
  for i = 0 to 199 do
    Alcotest.(check (option string))
      "find each" (Some (string_of_int i))
      (Btree.find tree (Key.of_int i))
  done;
  expect_ok (Btree.check_invariants tree)

let test_btree_range_and_order () =
  let tree = make_tree ~degree:3 () in
  let shuffled = [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ] in
  List.iter
    (fun i -> expect_ok (Btree.insert tree (Key.of_int i) (string_of_int i)))
    shuffled;
  let all = Btree.to_alist tree in
  Alcotest.(check (list string))
    "ascending order"
    (List.init 10 string_of_int)
    (List.map snd all);
  let mid = Btree.range tree ~lo:(Key.of_int 3) ~hi:(Key.of_int 6) in
  Alcotest.(check (list string)) "range" [ "3"; "4"; "5"; "6" ]
    (List.map snd mid);
  Alcotest.(check (list string)) "empty range" []
    (List.map snd (Btree.range tree ~lo:(Key.of_int 20) ~hi:(Key.of_int 30)));
  match Btree.next_after tree (Key.of_int 4) with
  | Some (_, "5") -> ()
  | _ -> Alcotest.fail "next_after"

let test_btree_delete_then_scan () =
  let tree = make_tree ~degree:2 () in
  for i = 0 to 49 do
    expect_ok (Btree.insert tree (Key.of_int i) (string_of_int i))
  done;
  (* Delete every even key — leaves go under-full, some empty. *)
  for i = 0 to 49 do
    if i mod 2 = 0 then ignore (Btree.delete tree (Key.of_int i))
  done;
  check_int "count" 25 (Btree.count tree);
  let remaining = List.map snd (Btree.to_alist tree) in
  Alcotest.(check (list string))
    "odds remain"
    (List.filter_map
       (fun i -> if i mod 2 = 1 then Some (string_of_int i) else None)
       (List.init 50 Fun.id))
    remaining;
  expect_ok (Btree.check_invariants tree)

(* Keys that front-coding must get right besides [Key.of_int]'s: the empty
   key, short keys that are prefixes of one another, and bytes at and
   above 0x80 next to 0x00 and 0x7f. *)
let btree_key_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map Key.of_int (int_bound 63));
        (1, return Key.min_key);
        ( 3,
          string_size
            ~gen:(oneofl [ '\x00'; 'a'; 'b'; '\x7f'; '\x80'; '\xff' ])
            (0 -- 4) );
      ])

(* Model-based property: a random operation sequence applied to the tree and
   to a reference Map must agree at every step. *)
let btree_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> `Insert k) btree_key_gen);
        (2, map (fun k -> `Delete k) btree_key_gen);
        (2, map (fun k -> `Update k) btree_key_gen);
        (1, map (fun k -> `Find k) btree_key_gen);
        (1, map (fun k -> `Next_after k) btree_key_gen);
        (1, map2 (fun lo hi -> `Range (lo, hi)) btree_key_gen btree_key_gen);
      ])

let prop_btree_matches_model =
  QCheck.Test.make ~name:"btree agrees with Map model" ~count:120
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ 2; 8 ]) (list_size (1 -- 200) btree_op_gen)))
    (fun (degree, ops) ->
      let module M = Map.Make (String) in
      let tree = make_tree ~degree () in
      let model = ref M.empty in
      let serial = ref 0 in
      List.iter
        (fun op ->
          incr serial;
          let value = string_of_int !serial in
          match op with
          | `Insert key ->
              let tree_result = Btree.insert tree key value in
              if M.mem key !model then assert (tree_result = Error `Duplicate)
              else begin
                assert (tree_result = Ok ());
                model := M.add key value !model
              end
          | `Delete key ->
              let tree_result = Btree.delete tree key in
              (match M.find_opt key !model with
              | Some v ->
                  assert (tree_result = Ok v);
                  model := M.remove key !model
              | None -> assert (tree_result = Error `Not_found))
          | `Update key ->
              let tree_result = Btree.update tree key value in
              (match M.find_opt key !model with
              | Some v ->
                  assert (tree_result = Ok v);
                  model := M.add key value !model
              | None -> assert (tree_result = Error `Not_found))
          | `Find key -> assert (Btree.find tree key = M.find_opt key !model)
          | `Next_after key ->
              assert (
                Btree.next_after tree key
                = M.find_first_opt (fun k -> Key.compare k key > 0) !model)
          | `Range (lo, hi) ->
              assert (
                Btree.range tree ~lo ~hi
                = List.filter
                    (fun (k, _) -> Key.compare k lo >= 0 && Key.compare k hi <= 0)
                    (M.bindings !model)))
        ops;
      (match Btree.check_invariants tree with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      let visited = ref [] in
      Btree.iter tree (fun key payload -> visited := (key, payload) :: !visited);
      Btree.to_alist tree = M.bindings !model
      && List.rev !visited = M.bindings !model)

let prop_btree_range_matches_model =
  QCheck.Test.make ~name:"btree range agrees with Map model" ~count:80
    (QCheck.make
       QCheck.Gen.(
         quad (oneofl [ 2; 8 ])
           (list_size (0 -- 120) btree_key_gen)
           btree_key_gen btree_key_gen))
    (fun (degree, keys, a, b) ->
      let module M = Map.Make (String) in
      let tree = make_tree ~degree () in
      let model = ref M.empty in
      List.iteri
        (fun i key ->
          match Btree.insert tree key (string_of_int i) with
          | Ok () -> model := M.add key (string_of_int i) !model
          | Error `Duplicate -> ())
        keys;
      let lo = min a b and hi = max a b in
      let expected =
        M.bindings !model
        |> List.filter (fun (k, _) ->
               Key.compare k lo >= 0 && Key.compare k hi <= 0)
      in
      Btree.range tree ~lo ~hi = expected
      && Btree.range tree ~lo:hi ~hi:lo = (if lo = hi then expected else []))

(* The ascending loader must build exactly what per-row inserts build: the
   same blocks and contents, root, count and next free block, whether the
   tree starts empty or holds a prefix whose last rows may be deleted. *)
let prop_bulk_load_matches_insert =
  QCheck.Test.make ~name:"btree bulk load equals per-row insert" ~count:60
    QCheck.(
      quad (oneofl [ 2; 3; 4; 8; 32 ]) (int_bound 60) (int_bound 60)
        (int_bound 3_000))
    (fun (degree, prefix, deleted, size) ->
      let build load =
        let store = make_store () in
        let tree = Btree.create store ~name:"T" ~degree in
        let row i = (Key.of_int i, string_of_int i) in
        for i = 0 to prefix - 1 do
          let key, payload = row i in
          expect_ok (Btree.insert tree key payload)
        done;
        for i = max 0 (prefix - deleted) to prefix - 1 do
          ignore (Btree.delete tree (Key.of_int i))
        done;
        load tree (List.init size (fun j -> row (prefix + j)));
        (store, tree)
      in
      let per_row_store, per_row =
        build (fun tree rows ->
            List.iter
              (fun (key, payload) -> expect_ok (Btree.insert tree key payload))
              rows)
      in
      let loaded_store, loaded =
        build (fun tree rows ->
            Btree.bulk_load tree (fun add ->
                List.iter (fun (key, payload) -> add key payload) rows))
      in
      (match Btree.check_invariants loaded with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      let next_block store =
        Store.alloc store
          (Block_content.Btree_leaf
             {
               keys = Packed_keys.empty;
               payloads = [||];
               next_leaf = Block_content.no_leaf;
             })
      in
      Store.snapshot loaded_store = Store.snapshot per_row_store
      && Btree.count loaded = Btree.count per_row
      && Btree.height loaded = Btree.height per_row
      && next_block loaded_store = next_block per_row_store)

(* Front-coded edits must leave exactly the encoding of the edited key
   sequence, and [search] must rank a key as a scan of the keys would. *)
let prop_packed_keys_edits =
  QCheck.Test.make ~name:"packed keys edit and search like a sorted array"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad (list_size (0 -- 20) btree_key_gen) btree_key_gen nat nat))
    (fun (keys, probe, i, length) ->
      let keys = Array.of_list (List.sort_uniq Key.compare keys) in
      let n = Array.length keys in
      let packed = Packed_keys.of_array keys in
      let without j = Array.init (n - 1) (fun k -> if k < j then keys.(k) else keys.(k + 1)) in
      let rank =
        match Array.find_index (fun k -> Key.compare k probe >= 0) keys with
        | Some r when Key.equal keys.(r) probe -> r
        | Some r -> -(r + 1)
        | None -> -(n + 1)
      in
      let added =
        match Packed_keys.add packed probe with
        | Error i -> i = rank
        | Ok (at, added) ->
            at = -rank - 1
            && added
               = Packed_keys.of_array
                   (Array.concat
                      [ Array.sub keys 0 at; [| probe |]; Array.sub keys at (n - at) ])
      in
      let first = if n = 0 then 0 else i mod n in
      let length = if n = 0 then 0 else length mod (n - first + 1) in
      Packed_keys.to_array packed = keys
      && Array.length (Packed_keys.to_array packed) = n
      && Packed_keys.search packed probe = rank
      && List.for_all
           (fun j -> Packed_keys.get packed j = keys.(j))
           (List.init n Fun.id)
      && added
      && (n = 0 || Packed_keys.remove packed first = Packed_keys.of_array (without first))
      && Packed_keys.sub packed first length
         = Packed_keys.of_array (Array.sub keys first length))

(* A block keeps its keys front-coded in one string and each leaf's
   payloads in one array, so rows sharing one payload cost a few words
   each. *)
let test_btree_blocks_are_compact () =
  let store = make_store () in
  let tree = Btree.create store ~name:"T" ~degree:8 in
  let rows = 100_000 and payload = Record.encode [ ("balance", "1000") ] in
  Btree.bulk_load tree (fun add ->
      for i = 0 to rows - 1 do
        add (Key.of_int i) payload
      done);
  let blocks = Array.of_list (List.map snd (Store.snapshot store)) in
  let per_record =
    float_of_int (Obj.reachable_words (Obj.repr blocks)) /. float_of_int rows
  in
  if per_record > 4.0 then
    Alcotest.failf "blocks take %.2f words per record, more than 4" per_record

(* ------------------------------------------------------------------ *)
(* Relative and entry-sequenced files *)

let test_relative_file () =
  let file = Relative_file.create (make_store ()) ~name:"R" ~slots_per_segment:4 in
  Alcotest.(check (option string)) "empty" None (Relative_file.read_slot file 0);
  Alcotest.(check (option string)) "first write" None
    (Relative_file.write_slot file 5 "five");
  Alcotest.(check (option string)) "read back" (Some "five")
    (Relative_file.read_slot file 5);
  Alcotest.(check (option string)) "overwrite returns before" (Some "five")
    (Relative_file.write_slot file 5 "FIVE");
  check_int "count" 1 (Relative_file.record_count file);
  ignore (Relative_file.write_slot file 0 "zero");
  ignore (Relative_file.write_slot file 9 "nine");
  check_int "count 3" 3 (Relative_file.record_count file);
  check_int "highest" 9 (Relative_file.highest_slot file);
  let visited = ref [] in
  Relative_file.iter file (fun slot payload ->
      visited := (slot, payload) :: !visited);
  Alcotest.(check (list (pair int string)))
    "iter ascending"
    [ (0, "zero"); (5, "FIVE"); (9, "nine") ]
    (List.rev !visited);
  Alcotest.(check (option string)) "delete" (Some "zero")
    (Relative_file.delete_slot file 0);
  check_int "count after delete" 2 (Relative_file.record_count file)

(* ------------------------------------------------------------------ *)
(* Secondary indices through File *)

let accounts_def =
  Schema.define ~name:"ACCOUNTS" ~organization:Schema.Key_sequenced ~degree:3
    ~indices:[ { Schema.index_name = "ACCT-BY-BRANCH"; on_field = "branch" } ]
    ~partitions:[ { Schema.low_key = Key.min_key; node = 1; volume = "$DATA" } ]
    ()

let test_file_with_index () =
  let file = File.create (make_store ()) accounts_def in
  let pay branch balance =
    Record.encode [ ("branch", branch); ("balance", string_of_int balance) ]
  in
  ignore (expect_ok (File.insert file (Key.of_int 1) (pay "SF" 100)));
  ignore (expect_ok (File.insert file (Key.of_int 2) (pay "NY" 200)));
  ignore (expect_ok (File.insert file (Key.of_int 3) (pay "SF" 300)));
  Alcotest.(check (list string))
    "index lookup"
    [ Key.of_int 1; Key.of_int 3 ]
    (File.lookup_index file ~index:"ACCT-BY-BRANCH" "SF");
  (* Update moves a record between branches; index follows. *)
  ignore (expect_ok (File.update file (Key.of_int 1) (pay "NY" 100)));
  Alcotest.(check (list string))
    "index after update" [ Key.of_int 3 ]
    (File.lookup_index file ~index:"ACCT-BY-BRANCH" "SF");
  Alcotest.(check (list string))
    "other side" [ Key.of_int 1; Key.of_int 2 ]
    (File.lookup_index file ~index:"ACCT-BY-BRANCH" "NY");
  ignore (expect_ok (File.delete file (Key.of_int 2)));
  Alcotest.(check (list string))
    "index after delete" [ Key.of_int 1 ]
    (File.lookup_index file ~index:"ACCT-BY-BRANCH" "NY");
  expect_ok (File.check_invariants file)

let test_file_undo_redo () =
  let file = File.create (make_store ()) accounts_def in
  let pay balance = Record.encode [ ("branch", "SF"); ("balance", string_of_int balance) ] in
  let insert_change = expect_ok (File.insert file (Key.of_int 1) (pay 100)) in
  let update_change = expect_ok (File.update file (Key.of_int 1) (pay 150)) in
  (* Undo in reverse order restores the initial state. *)
  File.apply_undo file update_change;
  Alcotest.(check (option int)) "update undone" (Some 100)
    (Option.bind (File.read file (Key.of_int 1)) (fun p -> Record.int_field p "balance"));
  File.apply_undo file insert_change;
  Alcotest.(check (option string)) "insert undone" None (File.read file (Key.of_int 1));
  check_int "empty again" 0 (File.count file);
  expect_ok (File.check_invariants file);
  (* Redo re-imposes the after-images; idempotently. *)
  File.apply_redo file insert_change;
  File.apply_redo file update_change;
  File.apply_redo file update_change;
  Alcotest.(check (option int)) "redone" (Some 150)
    (Option.bind (File.read file (Key.of_int 1)) (fun p -> Record.int_field p "balance"));
  expect_ok (File.check_invariants file)

let test_entry_organization_append_and_undo () =
  let def =
    Schema.define ~name:"HISTORY" ~organization:Schema.Entry_sequenced
      ~degree:8
      ~partitions:[ { Schema.low_key = Key.min_key; node = 1; volume = "$D" } ]
      ()
  in
  let file = File.create (make_store ()) def in
  let key0, change0 =
    match File.append file "first" with
    | Ok pair -> pair
    | Error `Wrong_organization -> Alcotest.fail "append rejected"
  in
  check_string "entry key" (Key.of_int 0) key0;
  Alcotest.(check (option string)) "read entry" (Some "first")
    (File.read file key0);
  File.apply_undo file change0;
  Alcotest.(check (option string)) "append undone" None (File.read file key0)

let test_file_snapshot_restore () =
  (* Snapshot + block snapshot must restore the file exactly, indices
     included — the basis of ROLLFORWARD archives. *)
  let store = make_store () in
  let file = File.create store accounts_def in
  let pay branch = Record.encode [ ("branch", branch); ("balance", "1") ] in
  for i = 0 to 30 do
    ignore (expect_ok (File.insert file (Key.of_int i) (pay (if i mod 2 = 0 then "SF" else "NY"))))
  done;
  let blocks = Store.snapshot store in
  let restore_metadata = File.snapshot file in
  (* Mutate heavily after the snapshot. *)
  for i = 0 to 30 do
    if i mod 3 = 0 then ignore (File.delete file (Key.of_int i))
    else ignore (File.update file (Key.of_int i) (pay "LA"))
  done;
  ignore (expect_ok (File.insert file (Key.of_int 99) (pay "SF")));
  (* Mount the archive. *)
  Store.restore store blocks;
  restore_metadata ();
  check_int "record count restored" 31 (File.count file);
  Alcotest.(check (option string)) "content restored" (Some "SF")
    (Option.bind (File.read file (Key.of_int 0)) (fun p -> Record.field p "branch"));
  Alcotest.(check (option string)) "post-snapshot insert gone" None
    (File.read file (Key.of_int 99));
  check_int "index restored" 16
    (List.length (File.lookup_index file ~index:"ACCT-BY-BRANCH" "SF"));
  expect_ok (File.check_invariants file)

(* Property: a random mutation history can be rolled back exactly by
   applying the collected before-images in reverse, and rolled forward
   again by the after-images — the contract audit-based backout and
   ROLLFORWARD redo rely on. *)
let prop_undo_redo_round_trip =
  QCheck.Test.make ~name:"undo reverses and redo replays any history" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 15) (int_bound 2)))
    (fun ops ->
      let file = File.create (make_store ()) accounts_def in
      (* A non-empty starting population. *)
      for i = 0 to 7 do
        ignore
          (File.insert file (Key.of_int i)
             (Record.encode [ ("branch", "SF"); ("balance", "0") ]))
      done;
      let initial = ref [] in
      File.iter file (fun k p -> initial := (k, p) :: !initial);
      let serial = ref 0 in
      let changes =
        List.filter_map
          (fun (k, op) ->
            incr serial;
            let key = Key.of_int k in
            let payload =
              Record.encode
                [ ("branch", if k mod 2 = 0 then "SF" else "NY");
                  ("balance", string_of_int !serial) ]
            in
            match op with
            | 0 -> (
                match File.insert file key payload with
                | Ok change -> Some change
                | Error _ -> None)
            | 1 -> (
                match File.update file key payload with
                | Ok change -> Some change
                | Error _ -> None)
            | _ -> (
                match File.delete file key with
                | Ok change -> Some change
                | Error _ -> None))
          ops
      in
      let final = ref [] in
      File.iter file (fun k p -> final := (k, p) :: !final);
      (* Undo everything in reverse: exactly the initial state. *)
      List.iter (File.apply_undo file) (List.rev changes);
      let after_undo = ref [] in
      File.iter file (fun k p -> after_undo := (k, p) :: !after_undo);
      (* Redo everything in order: exactly the final state. *)
      List.iter (File.apply_redo file) changes;
      let after_redo = ref [] in
      File.iter file (fun k p -> after_redo := (k, p) :: !after_redo);
      (match File.check_invariants file with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariants: %s" m);
      !after_undo = !initial && !after_redo = !final)

(* ------------------------------------------------------------------ *)
(* Schema and partitioning *)

let test_schema_validation () =
  let p node low = { Schema.low_key = low; node; volume = "$D" } in
  Alcotest.check_raises "no partitions"
    (Invalid_argument "Schema.define: a file needs at least one partition")
    (fun () ->
      ignore
        (Schema.define ~name:"X" ~organization:Schema.Key_sequenced
           ~partitions:[] ()));
  Alcotest.check_raises "first not min"
    (Invalid_argument "Schema.define: first partition must start at the minimum key")
    (fun () ->
      ignore
        (Schema.define ~name:"X" ~organization:Schema.Key_sequenced
           ~partitions:[ p 1 "m" ] ()));
  Alcotest.check_raises "not ascending"
    (Invalid_argument "Schema.define: partition low keys must ascend")
    (fun () ->
      ignore
        (Schema.define ~name:"X" ~organization:Schema.Key_sequenced
           ~partitions:[ p 1 Key.min_key; p 2 "m"; p 3 "c" ] ()))

let test_partition_routing () =
  let p node low = { Schema.low_key = low; node; volume = "$D" } in
  let def =
    Schema.define ~name:"STOCK" ~organization:Schema.Key_sequenced
      ~partitions:[ p 1 Key.min_key; p 2 "h"; p 3 "p" ]
      ()
  in
  check_int "low key" 1 (Schema.partition_for def "apple").Schema.node;
  check_int "boundary inclusive" 2 (Schema.partition_for def "h").Schema.node;
  check_int "middle" 2 (Schema.partition_for def "m").Schema.node;
  check_int "high" 3 (Schema.partition_for def "zebra").Schema.node;
  check_int "index" 2 (Schema.partition_index def "q")

let prop_partition_routing_total =
  QCheck.Test.make ~name:"every key routes to exactly one partition" ~count:200
    QCheck.(pair (small_list (string_of_size (QCheck.Gen.return 3))) string)
    (fun (cuts, probe) ->
      let cuts =
        List.sort_uniq String.compare (List.filter (fun c -> c <> "") cuts)
      in
      let partitions =
        { Schema.low_key = Key.min_key; node = 0; volume = "$D" }
        :: List.mapi (fun i low -> { Schema.low_key = low; node = i + 1; volume = "$D" }) cuts
      in
      let def =
        Schema.define ~name:"F" ~organization:Schema.Key_sequenced ~partitions ()
      in
      let chosen = Schema.partition_for def probe in
      (* The chosen partition's low key is <= probe, and no later partition
         also satisfies that. *)
      Key.compare chosen.Schema.low_key probe <= 0
      && List.for_all
           (fun p ->
             Key.compare p.Schema.low_key probe > 0
             || Key.compare p.Schema.low_key chosen.Schema.low_key <= 0)
           partitions)

(* ------------------------------------------------------------------ *)
(* Query language (mini ENFORM) *)

let populated_accounts () =
  let file = File.create (make_store ()) accounts_def in
  List.iteri
    (fun i (branch, balance) ->
      ignore
        (expect_ok
           (File.insert file (Key.of_int i)
              (Record.encode
                 [ ("branch", branch); ("balance", string_of_int balance) ]))))
    [ ("SF", 100); ("NY", 2000); ("SF", 1500); ("LA", 50); ("SF", 800); ("NY", 300) ];
  file

let run_query text file =
  match Query.parse text with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok query -> (
      match Query.run query file with
      | Ok rows -> rows
      | Error m -> Alcotest.failf "run: %s" m)

let test_query_filter_and_sort () =
  let file = populated_accounts () in
  let rows =
    run_query "FIND ACCOUNTS WHERE branch = SF SORTED BY balance LIST balance" file
  in
  Alcotest.(check (list (list (pair string string))))
    "SF balances ascending"
    [ [ ("balance", "100") ]; [ ("balance", "800") ]; [ ("balance", "1500") ] ]
    (List.map (fun r -> r.Query.fields) rows)

let test_query_numeric_comparison () =
  let file = populated_accounts () in
  let rows = run_query "FIND ACCOUNTS WHERE balance >= 800 AND balance < 2000" file in
  check_int "two rows" 2 (List.length rows);
  let rows = run_query "FIND ACCOUNTS WHERE branch <> SF" file in
  check_int "non-SF rows" 3 (List.length rows)

let test_query_uses_index () =
  let file = populated_accounts () in
  (match Query.parse "FIND ACCOUNTS WHERE branch = NY" with
  | Ok query ->
      check_bool "equality on indexed field plans via index" true
        (Query.ran_via_index query file)
  | Error m -> Alcotest.fail m);
  (match Query.parse "FIND ACCOUNTS WHERE balance > 100" with
  | Ok query ->
      check_bool "range on unindexed field scans" false
        (Query.ran_via_index query file)
  | Error m -> Alcotest.fail m);
  (* Same answer either way. *)
  let via_index = run_query "FIND ACCOUNTS WHERE branch = NY" file in
  check_int "index result" 2 (List.length via_index)

let test_query_parse_errors () =
  (match Query.parse "SELECT * FROM ACCOUNTS" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-FIND accepted");
  (match Query.parse "FIND ACCOUNTS WHERE branch" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling WHERE accepted");
  (match Query.parse "FIND ACCOUNTS WHERE branch ~ SF" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad operator accepted");
  match Query.parse "FIND ACCOUNTS LIST" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty LIST accepted"

let test_query_wrong_file_rejected () =
  let file = populated_accounts () in
  match Query.parse "FIND OTHER WHERE branch = SF" with
  | Ok query -> (
      match Query.run query file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "wrong file accepted")
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Compression *)

let test_front_coding () =
  let stats = Compression.front_code [| "account0001"; "account0002"; "account0100" |] in
  check_int "raw" 33 stats.Compression.raw_bytes;
  (* 11 + (1+1) + (1+3) = 17 *)
  check_int "compressed" 17 stats.Compression.compressed_bytes;
  check_bool "ratio < 1" true (Compression.ratio stats < 1.0);
  let none = Compression.front_code [||] in
  Alcotest.(check (float 0.0001)) "empty ratio" 1.0 (Compression.ratio none)

let test_btree_compression_stats () =
  let tree = make_tree ~degree:8 () in
  for i = 0 to 499 do
    expect_ok (Btree.insert tree (Key.of_int i) "x")
  done;
  let stats = Compression.btree_stats tree in
  check_bool "keys compress well" true (Compression.ratio stats < 0.5)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tandem_db"
    [
      ( "record",
        [
          Alcotest.test_case "codec round trip" `Quick test_record_codec_round_trip;
          Alcotest.test_case "field ops" `Quick test_record_field_ops;
          Alcotest.test_case "nested encoding" `Quick test_record_nested_encoding;
          Alcotest.test_case "malformed rejected" `Quick test_record_malformed_rejected;
        ]
        @ qcheck [ prop_record_field_matches_decode ] );
      ( "store",
        [
          Alcotest.test_case "alloc read write" `Quick test_store_alloc_read_write;
          Alcotest.test_case "crash loses unflushed" `Quick test_store_crash_loses_unflushed;
          Alcotest.test_case "charging counts io" `Quick test_store_charging_counts_io;
          Alcotest.test_case "dirty eviction writes back" `Quick test_dirty_eviction_writes_back;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru policy" `Quick test_cache_lru_policy;
          Alcotest.test_case "dirty tracking" `Quick test_cache_dirty_tracking;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic ops" `Quick test_btree_basic;
          Alcotest.test_case "splits" `Quick test_btree_many_inserts_split;
          Alcotest.test_case "range and order" `Quick test_btree_range_and_order;
          Alcotest.test_case "delete then scan" `Quick test_btree_delete_then_scan;
          Alcotest.test_case "blocks are compact" `Quick test_btree_blocks_are_compact;
        ]
        @ qcheck
            [
              prop_btree_matches_model;
              prop_bulk_load_matches_insert;
              prop_btree_range_matches_model;
              prop_packed_keys_edits;
            ] );
      ( "flat_files",
        [
          Alcotest.test_case "relative file" `Quick test_relative_file;
        ] );
      ( "file",
        [
          Alcotest.test_case "secondary index maintenance" `Quick test_file_with_index;
          Alcotest.test_case "undo redo" `Quick test_file_undo_redo;
          Alcotest.test_case "entry append and undo" `Quick
            test_entry_organization_append_and_undo;
          Alcotest.test_case "snapshot restore" `Quick test_file_snapshot_restore;
        ]
        @ qcheck [ prop_undo_redo_round_trip ] );
      ( "schema",
        [
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "partition routing" `Quick test_partition_routing;
        ]
        @ qcheck [ prop_partition_routing_total ] );
      ( "query",
        [
          Alcotest.test_case "filter and sort" `Quick test_query_filter_and_sort;
          Alcotest.test_case "numeric comparison" `Quick test_query_numeric_comparison;
          Alcotest.test_case "index access path" `Quick test_query_uses_index;
          Alcotest.test_case "parse errors" `Quick test_query_parse_errors;
          Alcotest.test_case "wrong file rejected" `Quick test_query_wrong_file_rejected;
        ] );
      ( "compression",
        [
          Alcotest.test_case "front coding" `Quick test_front_coding;
          Alcotest.test_case "btree stats" `Quick test_btree_compression_stats;
        ] );
    ]
