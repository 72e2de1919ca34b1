(* Context numbering: 0-8 zero coding, 9-13 sign coding, 14-16
   magnitude refinement, 17 run-length, 18 uniform. *)
let ctx_rl = 17
let ctx_uni = 18
let num_contexts = 19

(* Initial context states, ISO Table D.7. *)
let fresh_contexts () =
  Array.init num_contexts (fun i ->
      if i = 0 then Mq.context ~index:4 ()
      else if i = ctx_rl then Mq.context ~index:3 ()
      else if i = ctx_uni then Mq.context ~index:46 ()
      else Mq.context ())

(* -- packed coefficient state ----------------------------------------

   One flags word per coefficient replaces the five per-coefficient
   byte arrays (significant/sign/became/visited/refined) the coder
   used to probe: the word carries the coefficient's own state plus
   the significance of all eight neighbours and the sign of the four
   horizontal/vertical ones, maintained incrementally when a
   coefficient becomes significant. Context formation then reads one
   word and one LUT entry instead of paying eight bounds-checked
   probes per decision (the OpenJPEG flag layout idea). The array is
   padded by one cell on every side so neighbour updates never branch
   on block edges. *)

let f_sig = 0x01 (* this coefficient is significant *)
let f_visited = 0x02 (* coded by an earlier pass of this bit-plane *)
let f_refined = 0x04 (* magnitude-refined at least once *)
let f_became = 0x08 (* became significant in the current bit-plane *)
let f_sign = 0x10 (* this coefficient is negative *)

(* Neighbour significance, bits 5-12: W E N S NW NE SW SE. *)
let nb_shift = 5
let f_nb_w = 1 lsl 5
let f_nb_e = 1 lsl 6
let f_nb_n = 1 lsl 7
let f_nb_s = 1 lsl 8
let f_nb_nw = 1 lsl 9
let f_nb_ne = 1 lsl 10
let f_nb_sw = 1 lsl 11
let f_nb_se = 1 lsl 12
let nb_mask = 0xFF lsl nb_shift

(* Sign of the significant horizontal/vertical neighbours, bits
   13-16: W E N S (only ever set together with the matching
   significance bit). *)
let sg_shift = 13
let f_sg_w = 1 lsl 13
let f_sg_e = 1 lsl 14
let f_sg_n = 1 lsl 15
let f_sg_s = 1 lsl 16

type blk = {
  w : int;
  h : int;
  stride : int; (* w + 2: one padding column on each side *)
  orientation : Subband.orientation;
  lut : bool; (* false: reference per-probe context formation *)
  flags : int array; (* (w + 2) * (h + 2), padded *)
  zc_lut : int array; (* the orientation's zero-coding table *)
  contexts : Mq.context array;
}

let pos b x y = ((y + 1) * b.stride) + (x + 1)

(* Zero-coding contexts, ISO Table D.1 — the reference arithmetic,
   kept both as the LUT generator and as the [~lut:false] slow path
   that validates (and benchmarks against) the packed formulation. *)
let zc_primary h v d =
  if h = 2 then 8
  else if h = 1 then (if v >= 1 then 7 else if d >= 1 then 6 else 5)
  else if v = 2 then 4
  else if v = 1 then 3
  else if d >= 2 then 2
  else if d = 1 then 1
  else 0

let zc_hh hv d =
  if d >= 3 then 8
  else if d = 2 then (if hv >= 1 then 7 else 6)
  else if d = 1 then (if hv >= 2 then 5 else if hv = 1 then 4 else 3)
  else if hv >= 2 then 2
  else if hv = 1 then 1
  else 0

(* Sign-coding context and XOR bit, ISO Tables D.2/D.3, from the
   clamped horizontal and vertical sign contributions. *)
let sc_of_contrib hc vc =
  match (hc, vc) with
  | 1, 1 -> (13, 0)
  | 1, 0 -> (12, 0)
  | 1, -1 -> (11, 0)
  | 0, 1 -> (10, 0)
  | 0, 0 -> (9, 0)
  | 0, -1 -> (10, 1)
  | -1, 1 -> (11, 1)
  | -1, 0 -> (12, 1)
  | -1, -1 -> (13, 1)
  | _ -> assert false

(* The three zero-coding LUTs, indexed by the 8 neighbour-significance
   bits in flag order (W E N S NW NE SW SE). *)
let build_zc f =
  Array.init 256 (fun bits ->
      let b i = (bits lsr i) land 1 in
      let h = b 0 + b 1 in
      let v = b 2 + b 3 in
      let d = b 4 + b 5 + b 6 + b 7 in
      f h v d)

let lut_zc_primary = build_zc zc_primary
let lut_zc_swapped = build_zc (fun h v d -> zc_primary v h d)
let lut_zc_hh = build_zc (fun h v d -> zc_hh (h + v) d)

(* Sign-coding LUT, indexed by [sig W E N S | sign W E N S] (8 bits);
   each entry packs [(context lsl 1) lor xor]. *)
let lut_sc =
  Array.init 256 (fun idx ->
      let significant i = (idx lsr i) land 1 = 1 in
      let negative i = (idx lsr (4 + i)) land 1 = 1 in
      let contrib i =
        if not (significant i) then 0 else if negative i then -1 else 1
      in
      let clamp s = Stdlib.max (-1) (Stdlib.min 1 s) in
      let hc = clamp (contrib 0 + contrib 1) in
      let vc = clamp (contrib 2 + contrib 3) in
      let ctx, xor = sc_of_contrib hc vc in
      (ctx lsl 1) lor xor)

let zc_lut_for = function
  | Subband.LL | Subband.LH -> lut_zc_primary
  | Subband.HL -> lut_zc_swapped
  | Subband.HH -> lut_zc_hh

let make_blk ?(lut = true) ~orientation ~w ~h () =
  if w <= 0 || h <= 0 then invalid_arg "T1: block size";
  {
    w;
    h;
    stride = w + 2;
    orientation;
    lut;
    flags = Array.make ((w + 2) * (h + 2)) 0;
    zc_lut = zc_lut_for orientation;
    contexts = fresh_contexts ();
  }

(* -- reference (per-probe) context formation ------------------------ *)

let in_block b x y = x >= 0 && x < b.w && y >= 0 && y < b.h
let sig_at b x y = in_block b x y && b.flags.(pos b x y) land f_sig <> 0

(* Neighbourhood significance counts: horizontal, vertical, diagonal. *)
let neighbour_counts b x y =
  let s dx dy = if sig_at b (x + dx) (y + dy) then 1 else 0 in
  let h = s (-1) 0 + s 1 0 in
  let v = s 0 (-1) + s 0 1 in
  let d = s (-1) (-1) + s 1 (-1) + s (-1) 1 + s 1 1 in
  (h, v, d)

let zc_context_ref b x y =
  let h, v, d = neighbour_counts b x y in
  match b.orientation with
  | Subband.LL | Subband.LH -> zc_primary h v d
  | Subband.HL -> zc_primary v h d
  | Subband.HH -> zc_hh (h + v) d

let sign_contribution b x y =
  if not (sig_at b x y) then 0
  else if b.flags.(pos b x y) land f_sign <> 0 then -1
  else 1

let sc_packed_ref b x y =
  let clamp s = Stdlib.max (-1) (Stdlib.min 1 s) in
  let hc = clamp (sign_contribution b (x - 1) y + sign_contribution b (x + 1) y) in
  let vc = clamp (sign_contribution b x (y - 1) + sign_contribution b x (y + 1)) in
  let ctx, xor = sc_of_contrib hc vc in
  (ctx lsl 1) lor xor

(* -- hot context accessors ------------------------------------------ *)

let zc_context b p x y =
  if b.lut then b.zc_lut.((b.flags.(p) lsr nb_shift) land 0xFF)
  else zc_context_ref b x y

(* [(context lsl 1) lor xor], avoiding a tuple in the hot path. *)
let sc_packed b p x y =
  if b.lut then
    let f = b.flags.(p) in
    lut_sc.(((f lsr nb_shift) land 0xF) lor (((f lsr sg_shift) land 0xF) lsl 4))
  else sc_packed_ref b x y

(* Magnitude-refinement contexts, ISO Table D.4. *)
let mr_context b p x y =
  let f = b.flags.(p) in
  if f land f_refined <> 0 then 16
  else if
    (if b.lut then f land nb_mask = 0
     else
       let h, v, d = neighbour_counts b x y in
       h + v + d = 0)
  then 14
  else 15

(* Mark the coefficient at flags position [p] significant: its own
   state bits plus the incremental neighbour significance/sign bits of
   the eight surrounding cells (padding absorbs the out-of-block
   writes). *)
let set_significant b p ~neg =
  let fl = b.flags in
  let s = b.stride in
  fl.(p) <- fl.(p) lor f_sig lor f_became lor (if neg then f_sign else 0);
  fl.(p - 1) <- fl.(p - 1) lor f_nb_e lor (if neg then f_sg_e else 0);
  fl.(p + 1) <- fl.(p + 1) lor f_nb_w lor (if neg then f_sg_w else 0);
  fl.(p - s) <- fl.(p - s) lor f_nb_s lor (if neg then f_sg_s else 0);
  fl.(p + s) <- fl.(p + s) lor f_nb_n lor (if neg then f_sg_n else 0);
  fl.(p - s - 1) <- fl.(p - s - 1) lor f_nb_se;
  fl.(p - s + 1) <- fl.(p - s + 1) lor f_nb_sw;
  fl.(p + s - 1) <- fl.(p + s - 1) lor f_nb_ne;
  fl.(p + s + 1) <- fl.(p + s + 1) lor f_nb_nw

(* The bit-level interface that distinguishes encoder and decoder:
   every function codes (or decodes) through the shared MQ state and
   returns the actual bit value so the pass drivers below can be
   written once. These drivers serve the encoder and the [~lut:false]
   reference decoder; the decode kernel further down specialises the
   same passes for decoding. *)
type io = {
  coeff_bit : x:int -> y:int -> plane:int -> ctx:int -> int;
      (** zero-coding or refinement bit for one coefficient *)
  sign_bit : x:int -> y:int -> ctx:int -> xor:int -> int;
      (** sign of a newly significant coefficient (0 = positive) *)
  rl_bit : x:int -> y0:int -> plane:int -> int;
      (** run-length decision for a clean stripe column *)
  uni_pos : x:int -> y0:int -> plane:int -> int;
      (** 2-bit position of the first 1 within the column *)
  on_significant : x:int -> y:int -> plane:int -> unit;
      (** magnitude bookkeeping hook (decoder sets the plane bit) *)
  on_refine : x:int -> y:int -> plane:int -> bit:int -> unit;
}

let make_significant b io ~x ~y ~plane =
  let sc = sc_packed b (pos b x y) x y in
  let s = io.sign_bit ~x ~y ~ctx:(sc lsr 1) ~xor:(sc land 1) in
  set_significant b (pos b x y) ~neg:(s = 1);
  io.on_significant ~x ~y ~plane

(* One coefficient of a cleanup or significance pass: zero-coding
   plus sign on a 1 bit. *)
let code_zc b io ~p ~x ~y ~plane =
  let bit = io.coeff_bit ~x ~y ~plane ~ctx:(zc_context b p x y) in
  if bit = 1 then make_significant b io ~x ~y ~plane

let stripe = 4

let significance_pass b io ~plane =
  let fl = b.flags in
  let k = ref 0 in
  while !k < b.h do
    for x = 0 to b.w - 1 do
      for y = !k to Stdlib.min (!k + stripe - 1) (b.h - 1) do
        let p = pos b x y in
        let f = fl.(p) in
        if f land f_sig = 0 && f land nb_mask <> 0 then begin
          code_zc b io ~p ~x ~y ~plane;
          fl.(p) <- fl.(p) lor f_visited
        end
      done
    done;
    k := !k + stripe
  done

let refinement_pass b io ~plane =
  let fl = b.flags in
  let k = ref 0 in
  while !k < b.h do
    for x = 0 to b.w - 1 do
      for y = !k to Stdlib.min (!k + stripe - 1) (b.h - 1) do
        let p = pos b x y in
        let f = fl.(p) in
        if f land (f_sig lor f_became lor f_visited) = f_sig then begin
          let ctx = mr_context b p x y in
          let bit = io.coeff_bit ~x ~y ~plane ~ctx in
          io.on_refine ~x ~y ~plane ~bit;
          fl.(p) <- fl.(p) lor f_refined lor f_visited
        end
      done
    done;
    k := !k + stripe
  done

let cleanup_pass b io ~plane =
  let fl = b.flags in
  let k = ref 0 in
  while !k < b.h do
    let y0 = !k in
    let full_column = y0 + stripe <= b.h in
    for x = 0 to b.w - 1 do
      let column_clean =
        full_column
        && (let clean = ref true in
            for y = y0 to y0 + stripe - 1 do
              let f = fl.(pos b x y) in
              if
                f land (f_sig lor f_visited) <> 0
                || (if b.lut then f land nb_mask <> 0
                    else
                      let h, v, d = neighbour_counts b x y in
                      h + v + d > 0)
              then clean := false
            done;
            !clean)
      in
      if column_clean then begin
        if io.rl_bit ~x ~y0 ~plane = 1 then begin
          let r = io.uni_pos ~x ~y0 ~plane in
          (* Coefficient y0+r is the first 1: its zero-coding bit is
             implicit; code its sign and continue below it. *)
          make_significant b io ~x ~y:(y0 + r) ~plane;
          for y = y0 + r + 1 to y0 + stripe - 1 do
            code_zc b io ~p:(pos b x y) ~x ~y ~plane
          done
        end
      end
      else
        for y = y0 to Stdlib.min (y0 + stripe - 1) (b.h - 1) do
          let p = pos b x y in
          if fl.(p) land (f_sig lor f_visited) = 0 then
            code_zc b io ~p ~x ~y ~plane
        done
    done;
    k := !k + stripe
  done

(* End of a plane: every visited/became bit drops (padding cells
   never carry them, so sweeping the whole padded block is safe). The
   sweep stops at the block's own extent — a scratch flags array may
   be longer than this block needs. *)
let clear_plane_flags b =
  let fl = b.flags in
  let keep = lnot (f_visited lor f_became) in
  for i = 0 to (b.stride * (b.h + 2)) - 1 do
    fl.(i) <- fl.(i) land keep
  done

(* The standard pass sequence, derived from the pass index: pass 0
   is the top plane's cleanup, then every lower plane runs
   significance propagation, refinement, cleanup. [pass_kind] is 0,
   1, 2 for those three. *)
let pass_plane ~planes i = planes - 1 - ((i + 2) / 3)
let pass_kind i = (i + 2) mod 3

let run_pass b io ~planes i =
  let plane = pass_plane ~planes i in
  match pass_kind i with
  | 0 -> significance_pass b io ~plane
  | 1 -> refinement_pass b io ~plane
  | _ ->
    cleanup_pass b io ~plane;
    clear_plane_flags b

let total_passes ~planes = if planes = 0 then 0 else 1 + (3 * (planes - 1))

let num_planes coeffs =
  let m = Array.fold_left (fun acc c -> Stdlib.max acc (abs c)) 0 coeffs in
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits m 0

let check_dims ~w ~h len =
  if w <= 0 || h <= 0 || len <> w * h then invalid_arg "T1: dimensions"

let make_encoder_io b enc coeffs w =
  let magnitude x y = abs coeffs.((y * w) + x) in
  let bit_of x y plane = (magnitude x y lsr plane) land 1 in
  {
    coeff_bit =
      (fun ~x ~y ~plane ~ctx ->
        let bit = bit_of x y plane in
        Mq.encode !enc b.contexts.(ctx) bit;
        bit);
    sign_bit =
      (fun ~x ~y ~ctx ~xor ->
        let s = if coeffs.((y * w) + x) < 0 then 1 else 0 in
        Mq.encode !enc b.contexts.(ctx) (s lxor xor);
        s);
    rl_bit =
      (fun ~x ~y0 ~plane ->
        let any = ref 0 in
        for y = y0 to y0 + 3 do
          if bit_of x y plane = 1 then any := 1
        done;
        Mq.encode !enc b.contexts.(ctx_rl) !any;
        !any);
    uni_pos =
      (fun ~x ~y0 ~plane ->
        let rec first r = if bit_of x (y0 + r) plane = 1 then r else first (r + 1) in
        let r = first 0 in
        Mq.encode !enc b.contexts.(ctx_uni) ((r lsr 1) land 1);
        Mq.encode !enc b.contexts.(ctx_uni) (r land 1);
        r);
    on_significant = (fun ~x:_ ~y:_ ~plane:_ -> ());
    on_refine = (fun ~x:_ ~y:_ ~plane:_ ~bit:_ -> ());
  }

let encode_block ?lut ~orientation ~w ~h coeffs =
  check_dims ~w ~h (Array.length coeffs);
  let planes = num_planes coeffs in
  if planes = 0 then (0, "")
  else begin
    let b = make_blk ?lut ~orientation ~w ~h () in
    let enc = ref (Mq.encoder ()) in
    let io = make_encoder_io b enc coeffs w in
    for i = 0 to total_passes ~planes - 1 do
      run_pass b io ~planes i
    done;
    (planes, Mq.flush !enc)
  end

let make_decoder_io b dec magnitudes w =
  let set_bit x y plane =
    magnitudes.((y * w) + x) <- magnitudes.((y * w) + x) lor (1 lsl plane)
  in
  {
    coeff_bit = (fun ~x:_ ~y:_ ~plane:_ ~ctx -> Mq.decode !dec b.contexts.(ctx));
    sign_bit = (fun ~x:_ ~y:_ ~ctx ~xor -> Mq.decode !dec b.contexts.(ctx) lxor xor);
    rl_bit = (fun ~x:_ ~y0:_ ~plane:_ -> Mq.decode !dec b.contexts.(ctx_rl));
    uni_pos =
      (fun ~x:_ ~y0:_ ~plane:_ ->
        let hi = Mq.decode !dec b.contexts.(ctx_uni) in
        let lo = Mq.decode !dec b.contexts.(ctx_uni) in
        (hi lsl 1) lor lo);
    on_significant = (fun ~x ~y ~plane -> set_bit x y plane);
    on_refine = (fun ~x ~y ~plane ~bit -> if bit = 1 then set_bit x y plane);
  }

(* -- decode kernel ------------------------------------------------------

   The three passes again, specialised for decoding: every decision
   is one direct [Mq.decode] on a context picked from the flags word
   and the zero-coding/sign-coding LUTs read in place, and a decoded
   plane bit goes straight into the row-major magnitude buffer. No
   [io] record, no closure and no boxed value per coefficient; the
   decisions are made in the order of the [io] drivers above, so the
   output is identical to the [~lut:false] reference decoder, which
   the kernel-oracle property tests pin. [one] is [1 lsl plane]. A
   coefficient at (x, y) sits at [p = (y + 1) * stride + x + 1] in the
   flags and at [i = y * w + x] in the magnitudes. *)

let imin (a : int) b = if a < b then a else b

(* The sign of a coefficient that just became significant. *)
let dec_sign b dec mag p i one =
  let f = b.flags.(p) in
  let sc =
    lut_sc.(((f lsr nb_shift) land 0xF) lor (((f lsr sg_shift) land 0xF) lsl 4))
  in
  let neg = Mq.decode dec b.contexts.(sc lsr 1) lxor (sc land 1) = 1 in
  set_significant b p ~neg;
  mag.(i) <- mag.(i) lor one

(* Zero coding plus the sign on a 1 bit. *)
let dec_zc b dec mag p i one =
  let ctx = b.zc_lut.((b.flags.(p) lsr nb_shift) land 0xFF) in
  if Mq.decode dec b.contexts.(ctx) = 1 then dec_sign b dec mag p i one

(* The passes walk the block stripe column by stripe column: [p0] and
   [i0] address the column's top coefficient, [rows] is its height (4,
   or less in the last stripe). A full column is first tested as a
   whole from its four flags words, and skipped when no coefficient in
   it can be coded by the pass. *)

let dec_significance b dec mag one =
  let fl = b.flags and w = b.w and h = b.h and s = b.stride in
  let top = ref 0 in
  while !top < h do
    let rows = imin stripe (h - !top) in
    for x = 0 to w - 1 do
      let p0 = ((!top + 1) * s) + x + 1 and i0 = (!top * w) + x in
      if
        rows < stripe
        ||
        let f0 = fl.(p0) and f1 = fl.(p0 + s) in
        let f2 = fl.(p0 + (2 * s)) and f3 = fl.(p0 + (3 * s)) in
        (* some coefficient has a significant neighbour, and not all
           four are significant already *)
        (f0 lor f1 lor f2 lor f3) land nb_mask <> 0
        && f0 land f1 land f2 land f3 land f_sig = 0
      then
        for k = 0 to rows - 1 do
          let p = p0 + (k * s) in
          let f = fl.(p) in
          if f land f_sig = 0 && f land nb_mask <> 0 then begin
            dec_zc b dec mag p (i0 + (k * w)) one;
            fl.(p) <- fl.(p) lor f_visited
          end
        done
    done;
    top := !top + stripe
  done

let dec_refinement b dec mag one =
  let fl = b.flags and ctxs = b.contexts in
  let w = b.w and h = b.h and s = b.stride in
  let top = ref 0 in
  while !top < h do
    let rows = imin stripe (h - !top) in
    for x = 0 to w - 1 do
      let p0 = ((!top + 1) * s) + x + 1 and i0 = (!top * w) + x in
      if
        rows < stripe
        || (fl.(p0) lor fl.(p0 + s) lor fl.(p0 + (2 * s)) lor fl.(p0 + (3 * s)))
           land f_sig
           <> 0
      then
        for k = 0 to rows - 1 do
          let p = p0 + (k * s) in
          let f = fl.(p) in
          if f land (f_sig lor f_became lor f_visited) = f_sig then begin
            (* Magnitude-refinement contexts, ISO Table D.4. *)
            let ctx =
              if f land f_refined <> 0 then 16
              else if f land nb_mask = 0 then 14
              else 15
            in
            if Mq.decode dec ctxs.(ctx) = 1 then begin
              let i = i0 + (k * w) in
              mag.(i) <- mag.(i) lor one
            end;
            fl.(p) <- f lor f_refined lor f_visited
          end
        done
    done;
    top := !top + stripe
  done

(* The cleanup pass ends the plane, so it also drops each column's
   visited/became bits once the column is done — the kernel's form of
   [clear_plane_flags]: later columns read only their own flags and
   the neighbour bits, never a neighbour's visited/became. *)
let dec_cleanup b dec mag one =
  let fl = b.flags and ctxs = b.contexts in
  let w = b.w and h = b.h and s = b.stride in
  let keep = lnot (f_visited lor f_became) in
  let top = ref 0 in
  while !top < h do
    let rows = imin stripe (h - !top) in
    for x = 0 to w - 1 do
      let p0 = ((!top + 1) * s) + x + 1 and i0 = (!top * w) + x in
      if
        rows = stripe
        && (fl.(p0) lor fl.(p0 + s) lor fl.(p0 + (2 * s)) lor fl.(p0 + (3 * s)))
           land (f_sig lor f_visited lor nb_mask)
           = 0
      then begin
        (* Run-length mode: one decision for the clean column, then
           the position of its first 1, whose zero-coding bit is
           implicit. *)
        if Mq.decode dec ctxs.(ctx_rl) = 1 then begin
          let hi = Mq.decode dec ctxs.(ctx_uni) in
          let lo = Mq.decode dec ctxs.(ctx_uni) in
          let r = (hi lsl 1) lor lo in
          dec_sign b dec mag (p0 + (r * s)) (i0 + (r * w)) one;
          for k = r + 1 to stripe - 1 do
            dec_zc b dec mag (p0 + (k * s)) (i0 + (k * w)) one
          done
        end
      end
      else
        for k = 0 to rows - 1 do
          let p = p0 + (k * s) in
          if fl.(p) land (f_sig lor f_visited) = 0 then
            dec_zc b dec mag p (i0 + (k * w)) one
        done;
      for k = 0 to rows - 1 do
        let p = p0 + (k * s) in
        fl.(p) <- fl.(p) land keep
      done
    done;
    top := !top + stripe
  done

let dec_pass b dec mag ~planes i =
  let one = 1 lsl pass_plane ~planes i in
  match pass_kind i with
  | 0 -> dec_significance b dec mag one
  | 1 -> dec_refinement b dec mag one
  | _ -> dec_cleanup b dec mag one

(* All passes of a block from one codeword, through the kernel or
   (for [~lut:false]) the reference [io] drivers. *)
let decode_codeword b mag ~planes data =
  let total = total_passes ~planes in
  if b.lut then begin
    let dec = Mq.decoder data in
    for i = 0 to total - 1 do
      dec_pass b dec mag ~planes i
    done
  end
  else begin
    let io = make_decoder_io b (ref (Mq.decoder data)) mag b.w in
    for i = 0 to total - 1 do
      run_pass b io ~planes i
    done
  end

(* One codeword per pass: the given segments (a prefix of the
   encoder's list; any beyond the block's pass count are ignored). *)
let decode_segments b mag ~planes segments =
  let total = total_passes ~planes in
  let rec go run i = function
    | segment :: rest when i < total ->
      run i segment;
      go run (i + 1) rest
    | _ -> ()
  in
  if b.lut then
    go (fun i segment -> dec_pass b (Mq.decoder segment) mag ~planes i) 0 segments
  else begin
    let dec = ref (Mq.decoder "") in
    let io = make_decoder_io b dec mag b.w in
    go
      (fun i segment ->
        dec := Mq.decoder segment;
        run_pass b io ~planes i)
      0 segments
  end

(* Applies the signs in place: the magnitudes' [w * h] row-major
   prefix becomes the signed coefficient block. *)
let apply_signs b mag =
  for y = 0 to b.h - 1 do
    let row = y * b.w and frow = ((y + 1) * b.stride) + 1 in
    for x = 0 to b.w - 1 do
      if b.flags.(frow + x) land f_sign <> 0 then mag.(row + x) <- -mag.(row + x)
    done
  done

let decode_block ?lut ~orientation ~w ~h ~planes data =
  check_dims ~w ~h (w * h);
  let magnitudes = Array.make (w * h) 0 in
  if planes > 0 then begin
    let b = make_blk ?lut ~orientation ~w ~h () in
    decode_codeword b magnitudes ~planes data;
    apply_signs b magnitudes
  end;
  magnitudes

(* -- SNR-scalable variant ---------------------------------------------

   Every coding pass is terminated into its own MQ codeword (the
   standard's RESTART/segmentation option, contexts carried across
   passes), so a codestream can be truncated at any pass boundary and
   still decode exactly up to that pass. *)

let encode_block_scalable ?lut ~orientation ~w ~h coeffs =
  check_dims ~w ~h (Array.length coeffs);
  let planes = num_planes coeffs in
  if planes = 0 then (0, [])
  else begin
    let b = make_blk ?lut ~orientation ~w ~h () in
    let enc = ref (Mq.encoder ()) in
    let io = make_encoder_io b enc coeffs w in
    let segments = ref [] in
    for i = 0 to total_passes ~planes - 1 do
      run_pass b io ~planes i;
      segments := Mq.flush !enc :: !segments;
      enc := Mq.encoder ()
    done;
    (planes, List.rev !segments)
  end

let decode_block_scalable ?lut ~orientation ~w ~h ~planes segments =
  check_dims ~w ~h (w * h);
  let magnitudes = Array.make (w * h) 0 in
  if planes > 0 then begin
    let b = make_blk ?lut ~orientation ~w ~h () in
    decode_segments b magnitudes ~planes segments;
    apply_signs b magnitudes
  end;
  magnitudes

(* -- per-domain scratch decode ----------------------------------------

   The allocating entry points above pay one flags array, one
   magnitude buffer, one result array and 19 context records per code
   block — on the parallel decode path that per-block minor-heap churn
   is what forces the domains to rendezvous at every collection. The
   scratch variant keeps one decode state per domain in [Domain.DLS]
   and re-initialises it in place ([Array.fill] + [Mq.reset_context]),
   so a worker decodes an entire tile's blocks without allocating
   anything but the per-pass MQ decoders. *)

type scratch = {
  mutable sc_flags : int array;
  mutable sc_mag : int array;
  sc_contexts : Mq.context array;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { sc_flags = [||]; sc_mag = [||]; sc_contexts = fresh_contexts () })

(* Back to the ISO Table D.7 initial states, in place. *)
let reset_contexts ctxs =
  for i = 0 to num_contexts - 1 do
    let index =
      if i = 0 then 4 else if i = ctx_rl then 3 else if i = ctx_uni then 46 else 0
    in
    Mq.reset_context ctxs.(i) ~index ~mps:0
  done

let scratch_blk ?(lut = true) ~orientation ~w ~h () =
  if w <= 0 || h <= 0 then invalid_arg "T1: block size";
  let s = Domain.DLS.get scratch_key in
  let fn = (w + 2) * (h + 2) in
  if Array.length s.sc_flags < fn then s.sc_flags <- Array.make fn 0
  else Array.fill s.sc_flags 0 fn 0;
  if Array.length s.sc_mag < w * h then s.sc_mag <- Array.make (w * h) 0
  else Array.fill s.sc_mag 0 (w * h) 0;
  reset_contexts s.sc_contexts;
  ( {
      w;
      h;
      stride = w + 2;
      orientation;
      lut;
      flags = s.sc_flags;
      zc_lut = zc_lut_for orientation;
      contexts = s.sc_contexts;
    },
    s.sc_mag )

let decode_block_scalable_scratch ?lut ~orientation ~w ~h ~planes segments =
  check_dims ~w ~h (w * h);
  let b, magnitudes = scratch_blk ?lut ~orientation ~w ~h () in
  if planes > 0 then begin
    decode_segments b magnitudes ~planes segments;
    apply_signs b magnitudes
  end;
  magnitudes
