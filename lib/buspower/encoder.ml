type codeword = { data : int; aux : int }

type cost = {
  extra_lines : int;
  table_bits : int;
  gates : int;
  reads_per_fetch : int;
  latency_words : int;
}

module type S = sig
  val scheme : string
  val min_width : int
  val max_width : int
  val aux_width : width:int -> int
  val cost : width:int -> cost

  type encoder

  val encoder : width:int -> encoder
  val encode : encoder -> int -> codeword list
  val flush : encoder -> codeword list
  val reset : encoder -> unit

  type decoder

  val decoder : width:int -> decoder
  val decode : decoder -> codeword -> int list
  val flush_decoder : decoder -> int list
  val reset_decoder : decoder -> unit
end

type backend = (module S)

(* Registration order is observable (auto-selector tie-break), so the
   registry is an ordered list guarded for domain safety. *)
let registry : backend list ref = ref []
let registry_mutex = Mutex.create ()

let scheme_of (b : backend) =
  let module B = (val b) in
  B.scheme

let register b =
  Mutex.lock registry_mutex;
  let name = scheme_of b in
  let replaced = ref false in
  let updated =
    List.map
      (fun b' ->
        if String.equal (scheme_of b') name then (
          replaced := true;
          b)
        else b')
      !registry
  in
  registry := (if !replaced then updated else !registry @ [ b ]);
  Mutex.unlock registry_mutex

let all () =
  Mutex.lock registry_mutex;
  let l = !registry in
  Mutex.unlock registry_mutex;
  l

let find name =
  List.find_opt (fun b -> String.equal (scheme_of b) name) (all ())

let encode_stream (b : backend) ~width words =
  let module B = (val b) in
  let e = B.encoder ~width in
  let out = ref [] in
  Array.iter (fun w -> List.iter (fun cw -> out := cw :: !out) (B.encode e w)) words;
  List.iter (fun cw -> out := cw :: !out) (B.flush e);
  Array.of_list (List.rev !out)

let decode_stream (b : backend) ~width codewords =
  let module B = (val b) in
  let d = B.decoder ~width in
  let out = ref [] in
  Array.iter
    (fun cw -> List.iter (fun w -> out := w :: !out) (B.decode d cw))
    codewords;
  List.iter (fun w -> out := w :: !out) (B.flush_decoder d);
  Array.of_list (List.rev !out)

let transitions_with proj cws =
  let total = ref 0 in
  Array.iteri
    (fun i cw ->
      if i > 0 then
        total :=
          !total + Bitutil.Popcount.count (proj cw lxor proj cws.(i - 1)))
    cws;
  !total

let codeword_transitions cws =
  transitions_with (fun cw -> cw.data) cws + transitions_with (fun cw -> cw.aux) cws

let data_transitions cws = transitions_with (fun cw -> cw.data) cws

let stream_transitions b ~width words =
  codeword_transitions (encode_stream b ~width words)
