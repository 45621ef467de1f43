(* Leveled structured event log over per-domain bounded rings.

   Domain-safety model: each of the [shards] rings is owned by the domains
   that hash to it ([Metrics] uses the same sharding for counters), and
   every ring carries its own mutex.  Distinct domains normally land on
   distinct rings, so the lock is uncontended in practice; a shard
   collision costs contention, never correctness.  [events] locks each
   ring in turn and merge-sorts, exactly as [Metrics.freeze] sums shards. *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  seq : int;
  t_ns : float;
  domain : int;
  level : level;
  stability : Metrics.stability;
  event : string;
  span : string option;
  fields : (string * value) list;
}

(* ---- state ------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let min_level_rank = Atomic.make 0
let set_level l = Atomic.set min_level_rank (level_rank l)

let min_level () =
  match Atomic.get min_level_rank with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

let shards = 16
let shard () = (Domain.self () :> int) land (shards - 1)
let default_capacity = 8192

(* The ring's push count is the shard's emission seq, and its drop count
   the shard's overflow; [levels] and [slugs] tally every emission, kept
   or not. *)
type shard = {
  mutex : Mutex.t;
  mutable ring : event Ring.t;
  levels : int array;
  slugs : (string, int) Hashtbl.t;
}

let capacity = ref default_capacity

let dummy =
  {
    seq = 0;
    t_ns = 0.0;
    domain = 0;
    level = Debug;
    stability = Metrics.Stable;
    event = "";
    span = None;
    fields = [];
  }

let fresh_ring () = Ring.create ~capacity:!capacity ~dummy

let rings =
  Array.init shards (fun _ ->
      {
        mutex = Mutex.create ();
        ring = fresh_ring ();
        levels = Array.make 4 0;
        slugs = Hashtbl.create 16;
      })

let with_ring r f =
  Mutex.lock r.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mutex) f

let clear () =
  Array.iter
    (fun r ->
      with_ring r (fun () ->
          r.ring <- fresh_ring ();
          Array.fill r.levels 0 4 0;
          Hashtbl.reset r.slugs))
    rings

let set_capacity n =
  if n < 1 then invalid_arg "Telemetry.Log.set_capacity: capacity must be >= 1";
  capacity := n;
  clear ()

(* ---- run id ----------------------------------------------------------- *)

(* FNV-1a over pid and clock: unique enough to correlate one process's
   artifacts (log lines, sampler series, profiles), cheap, no extra
   dependency on a randomness source. *)
let fresh_run_id () =
  let fnv_prime = 0x100000001b3 in
  let step h x = (h lxor x) * fnv_prime land max_int in
  let h = step 0x3bf29ce484222325 (Unix.getpid ()) in
  let h = step h (int_of_float (Unix.gettimeofday () *. 1e6)) in
  Printf.sprintf "r%012x" (h land 0xffffffffffff)

let run_id_cell = ref None
let run_id_mutex = Mutex.create ()

let run_id () =
  Mutex.lock run_id_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock run_id_mutex)
    (fun () ->
      match !run_id_cell with
      | Some id -> id
      | None ->
          let id = fresh_run_id () in
          run_id_cell := Some id;
          id)

let set_run_id id =
  Mutex.lock run_id_mutex;
  run_id_cell := Some id;
  Mutex.unlock run_id_mutex

(* ---- emission --------------------------------------------------------- *)

let emit ?(stability = Metrics.Stable) level slug fields =
  if
    Atomic.get enabled_flag
    && level_rank level >= Atomic.get min_level_rank
  then begin
    let e =
      {
        seq = 0;
        t_ns = Metrics.now_ns ();
        domain = (Domain.self () :> int);
        level;
        stability;
        event = slug;
        span = Metrics.current_span_path ();
        fields;
      }
    in
    let r = rings.(shard ()) in
    with_ring r (fun () ->
        Ring.push r.ring { e with seq = Ring.pushed r.ring };
        r.levels.(level_rank level) <- r.levels.(level_rank level) + 1;
        Hashtbl.replace r.slugs slug
          (1 + Option.value ~default:0 (Hashtbl.find_opt r.slugs slug)))
  end

let debug ?stability slug fields = emit ?stability Debug slug fields
let info ?stability slug fields = emit ?stability Info slug fields
let warn ?stability slug fields = emit ?stability Warn slug fields
let error ?stability slug fields = emit ?stability Error slug fields

let events () =
  let all =
    Array.fold_left
      (fun acc r -> with_ring r (fun () -> Ring.to_list r.ring @ acc))
      [] rings
  in
  List.sort
    (fun a b ->
      match Float.compare a.t_ns b.t_ns with
      | 0 -> (
          match compare a.domain b.domain with
          | 0 -> compare a.seq b.seq
          | c -> c)
      | c -> c)
    all

let emitted () =
  Array.fold_left
    (fun acc r ->
      with_ring r (fun () -> acc + Array.fold_left ( + ) 0 r.levels))
    0 rings

let dropped () =
  Array.fold_left
    (fun acc r -> with_ring r (fun () -> acc + Ring.dropped r.ring))
    0 rings

let by_level () =
  let totals = Array.make 4 0 in
  Array.iter
    (fun r ->
      with_ring r (fun () ->
          Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) r.levels))
    rings;
  [
    ("debug", totals.(0)); ("error", totals.(3)); ("info", totals.(1));
    ("warn", totals.(2));
  ]

let by_event () =
  let tally = Hashtbl.create 32 in
  Array.iter
    (fun r ->
      with_ring r (fun () ->
          Hashtbl.iter
            (fun slug n ->
              Hashtbl.replace tally slug
                (n + Option.value ~default:0 (Hashtbl.find_opt tally slug)))
            r.slugs))
    rings;
  Hashtbl.fold (fun slug n acc -> (slug, n) :: acc) tally []
  |> List.sort compare

(* ---- JSON line codec -------------------------------------------------- *)

(* Floats always carry '.' or an exponent so the parser can give the
   constructor back; %.17g round-trips every finite double exactly. *)
let json_float f =
  let s = Printf.sprintf "%.17g" f in
  if
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'i')
      s
  then s
  else s ^ ".0"

let value_json = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> "\"" ^ Jsonu.escape s ^ "\""
  | Bool b -> string_of_bool b

let stability_name = function
  | Metrics.Stable -> "stable"
  | Metrics.Runtime -> "runtime"

let to_json e =
  let b = Buffer.create 192 in
  Printf.bprintf b
    "{\"run_id\":\"%s\",\"t_ns\":%s,\"domain\":%d,\"seq\":%d,\"level\":\"%s\",\"stability\":\"%s\",\"event\":\"%s\""
    (Jsonu.escape (run_id ()))
    (json_float e.t_ns) e.domain e.seq (level_name e.level)
    (stability_name e.stability)
    (Jsonu.escape e.event);
  (match e.span with
  | Some p -> Printf.bprintf b ",\"span\":\"%s\"" (Jsonu.escape p)
  | None -> ());
  Buffer.add_string b ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":%s" (Jsonu.escape k) (value_json v))
    e.fields;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Decodes exactly the object shape [to_json] writes (any member order)
   from the shared {!Jsonu} tree; unknown members are ignored. *)
exception Bad of string

let value_of_json key = function
  | Jsonu.Int i -> Int i
  | Jsonu.Float f -> Float f
  | Jsonu.Str s -> Str s
  | Jsonu.Bool b -> Bool b
  | _ -> raise (Bad (Printf.sprintf "field %S must be a scalar" key))

let of_json line =
  match Jsonu.of_string line with
  | Error e -> Result.Error (Jsonu.error_to_string e)
  | Ok doc -> (
      let req key conv what =
        match Jsonu.member key doc with
        | None -> raise (Bad (Printf.sprintf "missing %S" key))
        | Some v -> (
            match conv v with
            | Some x -> x
            | None -> raise (Bad (Printf.sprintf "%s must be %s" key what)))
      in
      let str = Jsonu.to_string_opt in
      try
        let run_id = req "run_id" str "a string" in
        let level =
          req "level" (fun v -> Option.bind (str v) level_of_name) "a level name"
        in
        let stability =
          req "stability"
            (fun v ->
              match str v with
              | Some "stable" -> Some Metrics.Stable
              | Some "runtime" -> Some Metrics.Runtime
              | _ -> None)
            "\"stable\" or \"runtime\""
        in
        let fields =
          req "fields"
            (function
              | Jsonu.Obj fs ->
                  Some (List.map (fun (k, v) -> (k, value_of_json k v)) fs)
              | _ -> None)
            "an object"
        in
        Ok
          ( run_id,
            {
              seq = req "seq" Jsonu.to_int "an integer";
              t_ns = req "t_ns" Jsonu.to_float "a number";
              domain = req "domain" Jsonu.to_int "an integer";
              level;
              stability;
              event = req "event" str "a string";
              span =
                (match Jsonu.member "span" doc with
                | None -> None
                | Some _ -> Some (req "span" str "a string"));
              fields;
            } )
      with Bad msg -> Error msg)

let stable_key e =
  let b = Buffer.create 96 in
  Buffer.add_string b (level_name e.level);
  Buffer.add_char b '|';
  Buffer.add_string b e.event;
  Buffer.add_char b '|';
  Buffer.add_string b (Option.value ~default:"" e.span);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '|';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (value_json v))
    e.fields;
  Buffer.contents b
