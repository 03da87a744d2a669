open Tandem_sim
open Tandem_os
open Tandem_db
open Dp_protocol

type t = {
  net : Net.t;
  tmf : Tmf.t;
  dict : Schema.t;
}

type error =
  | Data_error of Dp_protocol.error
  | Path_error of Rpc.error
  | Tx_unreachable

let pp_error formatter = function
  | Data_error e -> Dp_protocol.pp_error formatter e
  | Path_error e -> Rpc.pp_error formatter e
  | Tx_unreachable -> Format.pp_print_string formatter "participant unreachable"

let is_transient = function
  | Data_error (Lock_timeout | Tx_rejected | Volume_down) -> true
  | Data_error (Duplicate | Not_found | Security_violation | Bad_request _) ->
      false
  | Path_error _ | Tx_unreachable -> true

let create ~net ~tmf ~dictionary = { net; tmf; dict = dictionary }

let definition t file =
  match Schema.find t.dict file with
  | Some def -> Ok def
  | None -> Error (Data_error (Bad_request ("undefined file " ^ file)))

(* Route to the partition's DISCPROCESS: propagate the transid to the node
   first, note the volume as a participant, then issue the request. *)
let call t ~self ~transid partition build_payload =
  let from_node = (Process.pid self).Ids.node in
  let target_node = partition.Schema.node in
  let volume = partition.Schema.volume in
  let propagate =
    match transid with
    | None -> Ok ()
    | Some transid -> (
        match
          Tmf.ensure_known t.tmf ~self ~from_node ~to_node:target_node transid
        with
        | Ok () ->
            Tmf.note_local_participant t.tmf ~node:target_node ~volume transid;
            Ok ()
        | Error `Unreachable -> Error Tx_unreachable)
  in
  match propagate with
  | Error _ as e -> e
  | Ok () -> (
      let op =
        {
          op_id = Net.fresh_corr t.net;
          transid;
          lock_timeout = (Net.config t.net).Hw_config.lock_timeout;
        }
      in
      (* Charge the data request and its reply to the transaction's span. *)
      (match transid with
      | Some transid ->
          Span.add_messages (Net.spans t.net) transid 2
      | None -> ());
      match
        Rpc.call_name t.net ~self ~node:target_node ~name:volume
          (build_payload op)
      with
      | Ok reply -> Ok reply
      | Error e -> Error (Path_error e))

let read t ~self ?transid ~file key =
  match definition t file with
  | Error _ as e -> e
  | Ok def -> (
      let lock = transid <> None in
      let partition = Schema.partition_for def key in
      match
        call t ~self ~transid partition (fun op ->
            Dp_read { op; file; key; lock })
      with
      | Ok (Dp_value v) -> Ok v
      | Ok (Dp_error e) -> Error (Data_error e)
      | Ok _ -> Error (Data_error (Bad_request "protocol violation"))
      | Error _ as e -> e)

let mutate t ~self ?transid ~file key build =
  match definition t file with
  | Error _ as e -> e
  | Ok def -> (
      let partition = Schema.partition_for def key in
      match call t ~self ~transid partition build with
      | Ok (Dp_done _) -> Ok ()
      | Ok (Dp_error e) -> Error (Data_error e)
      | Ok _ -> Error (Data_error (Bad_request "protocol violation"))
      | Error _ as e -> e)

let insert t ~self ?transid ~file key payload =
  mutate t ~self ?transid ~file key (fun op ->
      Dp_insert { op; file; key; payload })

let update t ~self ?transid ~file key payload =
  mutate t ~self ?transid ~file key (fun op ->
      Dp_update { op; file; key; payload })

let delete t ~self ?transid ~file key =
  mutate t ~self ?transid ~file key (fun op -> Dp_delete { op; file; key })

let append t ~self ?transid ~file payload =
  match definition t file with
  | Error (Data_error _ as e) -> Error e
  | Error e -> Error e
  | Ok def -> (
      (* Entry-sequenced files live on their first (only) partition. *)
      let partition = List.hd def.Schema.partitions in
      match
        call t ~self ~transid partition (fun op ->
            Dp_append { op; file; payload })
      with
      | Ok (Dp_done { key }) -> Ok key
      | Ok (Dp_error e) -> Error (Data_error e)
      | Ok _ -> Error (Data_error (Bad_request "protocol violation"))
      | Error _ as e -> e)

let next_after t ~self ?transid ~file after =
  match definition t file with
  | Error _ as e -> e
  | Ok def -> (
      (* Ask the partition holding [after]; on exhaustion, move to the next
         partition's key range. *)
      let rec probe index after inclusive =
        if index >= List.length def.Schema.partitions then Ok None
        else begin
          let partition = List.nth def.Schema.partitions index in
          match
            call t ~self ~transid partition (fun op ->
                Dp_next { op; file; after; inclusive })
          with
          | Ok (Dp_pair (Some _ as hit)) -> Ok hit
          | Ok (Dp_pair None) ->
              let next_index = index + 1 in
              if next_index >= List.length def.Schema.partitions then Ok None
              else begin
                let next_partition = List.nth def.Schema.partitions next_index in
                (* Continue from the next partition's low key, inclusively:
                   a record exactly at the boundary must not be skipped. *)
                probe next_index next_partition.Schema.low_key true
              end
          | Ok (Dp_error e) -> Error (Data_error e)
          | Ok _ -> Error (Data_error (Bad_request "protocol violation"))
          | Error _ as e -> e
        end
      in
      probe (Schema.partition_index def after) after false)

let lookup_index t ~self ?transid ~file ~index alternate =
  match definition t file with
  | Error _ as e -> e
  | Ok def ->
      let rec gather acc = function
        | [] -> Ok (List.concat (List.rev acc))
        | partition :: rest -> (
            match
              call t ~self ~transid partition (fun op ->
                  Dp_lookup_index { op; file; index; alternate })
            with
            | Ok (Dp_keys keys) -> gather (keys :: acc) rest
            | Ok (Dp_error e) -> Error (Data_error e)
            | Ok _ -> Error (Data_error (Bad_request "protocol violation"))
            | Error _ as e -> e)
      in
      gather [] def.Schema.partitions

let lock_file t ~self ~transid ~file =
  match definition t file with
  | Error _ as e -> e
  | Ok def ->
      let rec lock_each = function
        | [] -> Ok ()
        | partition :: rest -> (
            match
              call t ~self ~transid:(Some transid) partition (fun op ->
                  Dp_lock_file { op; file })
            with
            | Ok Dp_ok -> lock_each rest
            | Ok (Dp_error e) -> Error (Data_error e)
            | Ok _ -> Error (Data_error (Bad_request "protocol violation"))
            | Error _ as e -> e)
      in
      lock_each def.Schema.partitions
