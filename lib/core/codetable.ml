module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry

type choice = { code : int; tau : Boolfun.t; cost : int }

type t = {
  k : int;
  subset_mask : int;
  (* chained.(b_in).(word) *)
  chained : choice array array;
  (* chained_out.(b_in).(word).(b_out) *)
  chained_out : choice option array array array;
  standalone_entries : Solver.entry array;
}

let k t = t.k
let subset_mask t = t.subset_mask

let choose_tau = Boolfun.choose_preferred

let build ~subset_mask ~k =
  if k < 1 || k > 16 then invalid_arg "Codetable.get: k not in 1..16";
  if not (Boolfun.mask_mem Boolfun.identity subset_mask) then
    invalid_arg "Codetable.get: subset must contain the identity";
  let size = 1 lsl k in
  let candidates = Blockword.codewords_by_transitions k in
  let dummy = { code = 0; tau = Boolfun.identity; cost = 0 } in
  let chained = Array.init 2 (fun _ -> Array.make size dummy) in
  let chained_out =
    Array.init 2 (fun _ -> Array.init size (fun _ -> Array.make 2 None))
  in
  for b_in = 0 to 1 do
    for word = 0 to size - 1 do
      let best = ref None in
      Array.iter
        (fun code ->
          if code land 1 = b_in then begin
            let mask = Blockword.tau_mask ~k ~word ~code land subset_mask in
            if mask <> 0 then begin
              let cost = Blockword.transitions ~k code in
              let choice = { code; tau = choose_tau mask; cost } in
              (if !best = None then best := Some choice);
              let b_out = code lsr (k - 1) land 1 in
              if chained_out.(b_in).(word).(b_out) = None then
                chained_out.(b_in).(word).(b_out) <- Some choice
            end
          end)
        candidates;
      match !best with
      | Some c -> chained.(b_in).(word) <- c
      | None -> assert false (* identity is always feasible *)
    done
  done;
  let standalone_entries = Solver.table ~subset_mask ~k () in
  { k; subset_mask; chained; chained_out; standalone_entries }

(* Find-or-build memo keyed by (k, subset).  The TT backend looks tables
   up from pool domains in the conformance differential, so the memo is
   mutex-guarded. *)
let cache : (int * int, t) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

let get ?(subset_mask = Boolfun.full_mask) ~k () =
  Mutex.lock cache_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_mutex)
    (fun () ->
      match Hashtbl.find_opt cache (k, subset_mask) with
      | Some t ->
          Metrics.incr Tel.codetable_hits;
          t
      | None ->
          Metrics.incr Tel.codetable_misses;
          let t =
            Metrics.with_span Tel.span_codetable_build (fun () ->
                build ~subset_mask ~k)
          in
          Hashtbl.add cache (k, subset_mask) t;
          t)

let bool_to_int b = if b then 1 else 0

let check_word t word =
  if word < 0 || word lsr t.k <> 0 then
    invalid_arg "Codetable: word wider than k"

let chained_best t ~b_in ~word =
  check_word t word;
  t.chained.(bool_to_int b_in).(word)

let chained_row t ~b_in = Array.copy t.chained.(bool_to_int b_in)

(* No-copy variant for the zero-alloc encode core: both rows at once,
   aliasing the table's own storage.  Callers must treat them as
   read-only. *)
let chained_rows t = (t.chained.(0), t.chained.(1))

let chained_best_out t ~b_in ~word ~b_out =
  check_word t word;
  t.chained_out.(bool_to_int b_in).(word).(bool_to_int b_out)

let standalone t ~word =
  check_word t word;
  let e = t.standalone_entries.(word) in
  { code = e.Solver.code; tau = e.Solver.tau; cost = e.Solver.code_transitions }
