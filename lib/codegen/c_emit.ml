(** C code emission.

    Exo's output is "plain C code with intrinsic instructions" that the user
    compiles with whatever toolchain they like — the paper counts this
    compiler-independence among Exo's advantages over TVM/Halide. This
    module renders a scheduled procedure to exactly that:

    - tensor arguments become flat pointers with linearized row-major
      indexing (dims may be symbolic sizes such as [KC]);
    - [DRAM] allocations become stack arrays;
    - register-memory allocations become arrays of the ISA's vector type
      (the lanes dimension folds into the type, [f32\[12, 2, 4\] @ Neon] →
      [float32x4_t C_reg\[12\]\[2\]]);
    - instruction calls are rendered through the instruction's [@instr]
      format string, filling each [{param_data}] hole with the operand's
      C lvalue and each [{param}] hole with a scalar expression.

    Direct (non-instruction) access to a register-memory buffer is rejected:
    a kernel must be fully vectorized before it can be emitted for a vector
    register class, which is the same discipline Exo's memory checks impose. *)

open Exo_ir
open Ir

exception Codegen_error of string

let err fmt = Fmt.kstr (fun s -> raise (Codegen_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Unique C names                                                      *)

type names = { taken : (string, int) Hashtbl.t; tbl : string Sym.Tbl.t }

let mk_names () = { taken = Hashtbl.create 32; tbl = Sym.Tbl.create 32 }

let cname (n : names) (s : Sym.t) : string =
  match Sym.Tbl.find_opt n.tbl s with
  | Some x -> x
  | None ->
      let base = Sym.name s in
      let x =
        match Hashtbl.find_opt n.taken base with
        | None ->
            Hashtbl.replace n.taken base 0;
            base
        | Some k ->
            Hashtbl.replace n.taken base (k + 1);
            Fmt.str "%s_%d" base (k + 1)
      in
      Sym.Tbl.replace n.tbl s x;
      x

(* ------------------------------------------------------------------ *)
(* Buffer layout info                                                  *)

type buf_info = { bdims : expr list; bmem : Mem.t; written : bool }

let collect_buffers (p : proc) : buf_info Sym.Tbl.t =
  let tbl = Sym.Tbl.create 16 in
  let written = ref Sym.Set.empty in
  iter_stmts
    (fun s ->
      match s with
      | SAssign (b, _, _) | SReduce (b, _, _) -> written := Sym.Set.add b !written
      | SCall (callee, args) ->
          (* windows bound to parameters the instruction writes *)
          List.iteri
            (fun i a ->
              match (a, List.nth_opt callee.p_args i) with
              | AWin w, Some param ->
                  let writes_param =
                    List.exists
                      (function
                        | SAssign (x, _, _) | SReduce (x, _, _) ->
                            Sym.equal x param.a_name
                        | _ -> false)
                      callee.p_body
                    ||
                    (* conservative: nested writes *)
                    let acc = ref false in
                    iter_stmts
                      (function
                        | SAssign (x, _, _) | SReduce (x, _, _)
                          when Sym.equal x param.a_name ->
                            acc := true
                        | _ -> ())
                      callee.p_body;
                    !acc
                  in
                  if writes_param then written := Sym.Set.add w.wbuf !written
              | _ -> ())
            args
      | _ -> ())
    p.p_body;
  List.iter
    (fun (a : arg) ->
      match a.a_typ with
      | TTensor (_, dims) ->
          Sym.Tbl.replace tbl a.a_name
            { bdims = dims; bmem = a.a_mem; written = Sym.Set.mem a.a_name !written }
      | TScalar _ ->
          Sym.Tbl.replace tbl a.a_name
            { bdims = []; bmem = a.a_mem; written = Sym.Set.mem a.a_name !written }
      | _ -> ())
    p.p_args;
  iter_stmts
    (function
      | SAlloc (b, _, dims, mem) ->
          Sym.Tbl.replace tbl b
            { bdims = dims; bmem = mem; written = Sym.Set.mem b !written }
      | _ -> ())
    p.p_body;
  tbl

(* ------------------------------------------------------------------ *)
(* Expression rendering                                                *)

type ctx = { names : names; bufs : buf_info Sym.Tbl.t }

let buf_info ctx b =
  match Sym.Tbl.find_opt ctx.bufs b with
  | Some i -> i
  | None -> err "unknown buffer %s" (Sym.name b)

let is_reg_mem mem = Exo_isa.Memories.is_register_mem mem

(** Linearized index expression: [i0*s0 + i1*s1 + ...] with row-major
    strides over (possibly symbolic) dims. *)
let rec linear_index ctx (dims : expr list) (idx : expr list) : string =
  let rec strides = function
    | [] | [ _ ] -> []
    | _ :: rest -> rest :: strides rest
  in
  let terms =
    List.map2
      (fun i later ->
        let base = render_expr ctx ~prec:2 i in
        List.fold_left
          (fun acc d -> Fmt.str "%s * %s" acc (render_expr ctx ~prec:2 d))
          base later)
      idx
      (match idx with [] -> [] | _ -> strides dims @ [ [] ])
  in
  match terms with [] -> "0" | t :: ts -> List.fold_left (Fmt.str "%s + %s") t ts

(** [prec]: 0 = comma-safe, 1 = additive context, 2 = multiplicative. *)
and render_expr ctx ?(prec = 0) (e : expr) : string =
  let paren needed s = if needed then "(" ^ s ^ ")" else s in
  match e with
  | Int n -> if n < 0 then paren (prec > 1) (string_of_int n) else string_of_int n
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Fmt.str "%.1ff" f
      else Fmt.str "%.9gf" f
  | Var v -> cname ctx.names v
  | Read (b, idx) ->
      let info = buf_info ctx b in
      if is_reg_mem info.bmem then
        err "direct access to register buffer %s (kernel not fully vectorized)"
          (Sym.name b);
      Fmt.str "%s[%s]" (cname ctx.names b) (linear_index ctx info.bdims idx)
  | Binop (op, a, b) -> (
      match op with
      | Add -> paren (prec > 1) (Fmt.str "%s + %s" (render_expr ctx ~prec:1 a) (render_expr ctx ~prec:1 b))
      | Sub -> paren (prec > 1) (Fmt.str "%s - %s" (render_expr ctx ~prec:1 a) (render_expr ctx ~prec:2 b))
      | Mul -> Fmt.str "%s * %s" (render_expr ctx ~prec:2 a) (render_expr ctx ~prec:2 b)
      | Div -> Fmt.str "%s / %s" (render_expr ctx ~prec:2 a) (render_expr ctx ~prec:2 b)
      | Mod -> Fmt.str "%s %% %s" (render_expr ctx ~prec:2 a) (render_expr ctx ~prec:2 b))
  | Neg a -> Fmt.str "-%s" (render_expr ctx ~prec:2 a)
  | Cmp (op, a, b) ->
      paren (prec > 0)
        (Fmt.str "%s %s %s" (render_expr ctx ~prec:1 a) (cmpop_name op)
           (render_expr ctx ~prec:1 b))
  | And (a, b) -> paren (prec > 0) (Fmt.str "%s && %s" (render_expr ctx a) (render_expr ctx b))
  | Or (a, b) -> paren (prec > 0) (Fmt.str "%s || %s" (render_expr ctx a) (render_expr ctx b))
  | Not a -> Fmt.str "!%s" (render_expr ctx ~prec:2 a)
  | Stride _ -> err "stride() must not reach code generation"

(** Render a window operand as a C lvalue (element or vector register). *)
let render_window ctx (w : window) : string =
  let info = buf_info ctx w.wbuf in
  if is_reg_mem info.bmem then begin
    (* register array: point dims index the array; the vector (interval)
       dim must be the full innermost lane dimension *)
    let rank = List.length info.bdims in
    let idx =
      List.mapi
        (fun d wa ->
          match wa with
          | Pt e -> Some (render_expr ctx e)
          | Iv (lo, _) ->
              if d <> rank - 1 then
                err "register window on %s must vectorize the lane dimension"
                  (Sym.name w.wbuf);
              (match Simplify.expr lo with
              | Int 0 -> ()
              | _ ->
                  err "register window on %s must start at lane 0" (Sym.name w.wbuf));
              None)
        w.widx
    in
    List.fold_left
      (fun acc -> function Some i -> Fmt.str "%s[%s]" acc i | None -> acc)
      (cname ctx.names w.wbuf)
      idx
  end
  else
    (* addressable memory: element lvalue at the window base *)
    let base =
      List.map (function Pt e -> e | Iv (lo, _) -> lo) w.widx
    in
    Fmt.str "%s[%s]" (cname ctx.names w.wbuf) (linear_index ctx info.bdims base)

(** Fill an [@instr] format string. Holes: [{p_data}] (operand lvalue) and
    [{p}] (scalar expression). *)
let render_call ctx (callee : proc) (args : call_arg list) : string =
  let info =
    match callee.p_instr with
    | Some i -> i
    | None -> err "call to non-instruction %s survived scheduling" callee.p_name
  in
  let value_of (param : arg) (a : call_arg) : string =
    match a with
    | AExpr e -> render_expr ctx e
    | AWin w -> (
        match param.a_typ with
        | TScalar _ | TTensor _ ->
            (* final memory strictness: a register parameter must be fed a
               register window by emission time (set_memory must have run) *)
            let binfo = buf_info ctx w.wbuf in
            if is_reg_mem param.a_mem && not (is_reg_mem binfo.bmem) then
              err
                "call to %s: parameter %s expects %s data but %s still lives in \
                 %s (missing set_memory?)"
                callee.p_name (Sym.name param.a_name) (Mem.name param.a_mem)
                (Sym.name w.wbuf) (Mem.name binfo.bmem);
            render_window ctx w
        | _ -> err "window bound to non-tensor parameter")
  in
  let bindings =
    List.map2
      (fun (param : arg) a -> (Sym.name param.a_name, value_of param a))
      callee.p_args args
  in
  let buf = Buffer.create 64 in
  let fmtstr = info.ci_fmt in
  let n = String.length fmtstr in
  let i = ref 0 in
  while !i < n do
    (match fmtstr.[!i] with
    | '{' ->
        let j = String.index_from fmtstr !i '}' in
        let hole = String.sub fmtstr (!i + 1) (j - !i - 1) in
        let key =
          match Filename.chop_suffix_opt ~suffix:"_data" hole with
          | Some k -> k
          | None -> hole
        in
        (match List.assoc_opt key bindings with
        | Some v -> Buffer.add_string buf v
        | None -> err "instruction %s: unknown hole {%s}" callee.p_name hole);
        i := j
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let rec render_stmts ctx ~indent ppf (body : stmt list) : unit =
  List.iter (render_stmt ctx ~indent ppf) body

and render_stmt ctx ~indent ppf (s : stmt) : unit =
  let pad = String.make indent ' ' in
  match s with
  | SAssign (b, idx, e) ->
      let info = buf_info ctx b in
      if is_reg_mem info.bmem then
        err "direct write to register buffer %s (kernel not fully vectorized)"
          (Sym.name b);
      Fmt.pf ppf "%s%s[%s] = %s;@," pad (cname ctx.names b)
        (linear_index ctx info.bdims idx)
        (render_expr ctx e)
  | SReduce (b, idx, e) ->
      let info = buf_info ctx b in
      if is_reg_mem info.bmem then
        err "direct write to register buffer %s (kernel not fully vectorized)"
          (Sym.name b);
      Fmt.pf ppf "%s%s[%s] += %s;@," pad (cname ctx.names b)
        (linear_index ctx info.bdims idx)
        (render_expr ctx e)
  | SFor (v, lo, hi, inner) ->
      let vn = cname ctx.names v in
      Fmt.pf ppf "%sfor (int_fast32_t %s = %s; %s < %s; %s++) {@,"
        pad vn (render_expr ctx lo) vn (render_expr ctx hi) vn;
      render_stmts ctx ~indent:(indent + 2) ppf inner;
      Fmt.pf ppf "%s}@," pad
  | SAlloc (b, dt, dims, mem) -> (
      let bn = cname ctx.names b in
      match Exo_isa.Memories.lookup mem with
      | Some info ->
          (* vector register array: drop the lane dimension into the type *)
          let vt =
            match info.Exo_isa.Memories.c_vec_type dt with
            | Some t -> t
            | None ->
                err "memory %s cannot hold %s" (Mem.name mem) (Dtype.c_name dt)
          in
          let outer = List.rev (List.tl (List.rev dims)) in
          Fmt.pf ppf "%s%s %s%s;@," pad vt bn
            (String.concat ""
               (List.map (fun d -> Fmt.str "[%s]" (render_expr ctx d)) outer))
      | None ->
          if dims = [] then Fmt.pf ppf "%s%s %s;@," pad (Dtype.c_name dt) bn
          else
            Fmt.pf ppf "%s%s %s%s;@," pad (Dtype.c_name dt) bn
              (String.concat ""
                 (List.map (fun d -> Fmt.str "[%s]" (render_expr ctx d)) dims)))
  | SCall (callee, args) -> Fmt.pf ppf "%s%s@," pad (render_call ctx callee args)
  | SIf (c, t, []) ->
      Fmt.pf ppf "%sif (%s) {@," pad (render_expr ctx c);
      render_stmts ctx ~indent:(indent + 2) ppf t;
      Fmt.pf ppf "%s}@," pad
  | SIf (c, t, e) ->
      Fmt.pf ppf "%sif (%s) {@," pad (render_expr ctx c);
      render_stmts ctx ~indent:(indent + 2) ppf t;
      Fmt.pf ppf "%s} else {@," pad;
      render_stmts ctx ~indent:(indent + 2) ppf e;
      Fmt.pf ppf "%s}@," pad

(* ------------------------------------------------------------------ *)
(* Whole procedure / compilation unit                                  *)

let signature ctx (p : proc) : string =
  let params =
    List.map
      (fun (a : arg) ->
        let n = cname ctx.names a.a_name in
        match a.a_typ with
        | TSize | TIndex -> Fmt.str "int_fast32_t %s" n
        | TBool -> Fmt.str "bool %s" n
        | TScalar dt | TTensor (dt, _) ->
            let info = Sym.Tbl.find ctx.bufs a.a_name in
            if info.written then Fmt.str "%s* %s" (Dtype.c_name dt) n
            else Fmt.str "const %s* %s" (Dtype.c_name dt) n)
      p.p_args
  in
  Fmt.str "void %s(%s)" p.p_name (String.concat ", " params)

let includes_of (p : proc) : string list =
  let acc = ref [] in
  iter_stmts
    (function
      | SCall (callee, _) -> (
          match callee.p_instr with
          | Some i ->
              List.iter
                (fun h -> if not (List.mem h !acc) then acc := h :: !acc)
                i.ci_includes
          | None -> ())
      | _ -> ())
    p.p_body;
  List.rev !acc

(** Render one procedure to a C definition. *)
let proc_to_c (p : proc) : string =
  let ctx = { names = mk_names (); bufs = collect_buffers p } in
  let sig_ = signature ctx p in
  Fmt.str "@[<v>%s {@,%a}@]@." sig_
    (fun ppf () ->
      List.iter
        (fun pred ->
          Fmt.pf ppf "  // assert %s@," (Pp.expr_to_string pred))
        p.p_preds;
      render_stmts ctx ~indent:2 ppf p.p_body)
    ()

(** Render a full compilation unit (includes + procedures). *)
let compilation_unit ?(header_comment = "") (procs : proc list) : string =
  let includes =
    List.sort_uniq compare (List.concat_map includes_of procs)
  in
  let b = Buffer.create 4096 in
  (* the header comment may span lines (e.g. a kernel's provenance log);
     each line gets its own [//] so the output stays a valid C comment *)
  if header_comment <> "" then
    String.split_on_char '\n' header_comment
    |> List.iter (fun line -> Buffer.add_string b (Fmt.str "// %s\n" line));
  Buffer.add_string b "#include <stdint.h>\n#include <stdbool.h>\n";
  List.iter (fun h -> Buffer.add_string b (Fmt.str "#include <%s>\n" h)) includes;
  Buffer.add_char b '\n';
  List.iter
    (fun p ->
      Buffer.add_string b (proc_to_c p);
      Buffer.add_char b '\n')
    procs;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Native JIT ABI emission                                             *)

type native_target = Nat_intrinsics | Nat_portable

let native_target_name = function
  | Nat_intrinsics -> "intrinsics"
  | Nat_portable -> "portable"

let native_sym ~(mr : int) ~(nr : int) : string = Fmt.str "exo_ukr_%dx%d" mr nr

let native_abi_signature (sym : string) : string =
  Fmt.str
    "void %s(int kc, const float *restrict A, const float *restrict B, float \
     *restrict C)"
    sym

(* The canonical plain-C lowering of one (mr, nr) micro-kernel body under
   the native ABI: local f32 accumulators, the [k, j, i] outer-product nest
   of the reference kernel, one accumulate-back into C at the end. The
   restrict qualifiers and the ivdep pragma tell the host compiler the
   loops carry no aliasing, so it autovectorizes the i-loop for whatever
   ISA it targets — the lowering for hosts without the kit's intrinsics,
   and for any entry whose scheduled proc the emitter rejects.

   Register blocking: when mr is a multiple of 4 the j and i loops are
   fully unrolled (GCC unroll pragmas; compilers that do not know them
   ignore them) so the nr×mr accumulators live in vector registers across
   the k-loop instead of being shuffled through memory; gcc then
   vectorizes the i-loop at its preferred width, which is 8 lanes on an
   AVX-512 host. Other shapes keep the rolled nest: unrolled, gcc 12 made
   7×7, 7×11 and 5×11 1.8–2.5× slower.
   Each element still accumulates in k order — no k-splitting, no
   reassociation. Whether each step is one fused multiply-add is the
   compiler's choice: gcc 12 contracts the shapes it vectorizes along i,
   but 24 shapes of the 8×12 bank (nr ∈ {1, 2, 3, 4, 8} with mr ≤ 4, and
   8×1 to 8×4) differ from one FMA per k on real-valued data — in 8×2,
   gcc vectorizes along k and rounds each product before the add. *)
let loop_body (b : Buffer.t) ~(mr : int) ~(nr : int) : unit =
  let bf fmt = Printf.bprintf b fmt in
  let unroll n = if mr mod 4 = 0 then bf "#pragma GCC unroll %d\n" n in
  bf "  float acc[%d][%d];\n" nr mr;
  unroll nr;
  bf "  for (int j = 0; j < %d; j++)\n" nr;
  unroll mr;
  bf "    for (int i = 0; i < %d; i++)\n" mr;
  bf "      acc[j][i] = 0.0f;\n";
  bf "  for (int k = 0; k < kc; k++) {\n";
  bf "    const float *restrict a = A + (ptrdiff_t)k * %d;\n" mr;
  bf "    const float *restrict bp = B + (ptrdiff_t)k * %d;\n" nr;
  unroll nr;
  bf "    for (int j = 0; j < %d; j++) {\n" nr;
  bf "      const float bj = bp[j];\n";
  bf "#pragma GCC ivdep\n";
  unroll mr;
  bf "      for (int i = 0; i < %d; i++)\n" mr;
  bf "        acc[j][i] += a[i] * bj;\n";
  bf "    }\n";
  bf "  }\n";
  unroll nr;
  bf "  for (int j = 0; j < %d; j++)\n" nr;
  unroll mr;
  bf "    for (int i = 0; i < %d; i++)\n" mr;
  bf "      C[j * %d + i] += acc[j][i];\n" mr

let paired_form ~(lanes : int) ~(mr : int) ~(nr : int) : bool =
  lanes >= 4 && 2 * mr = lanes && nr mod 2 = 0

(* The same nest written with GNU C vector types of [lanes] f32 lanes,
   for the shapes {!paired_form} accepts (mr = lanes/2, nr even): each
   accumulator holds a pair of C columns, lane 2·i+e holding
   C(i, 2·p+e). Per k, A's mr values are loaded once and each is
   duplicated by one shuffle; each pair of B values is loaded as one
   64-bit integer and repeated across the vector (a [vpbroadcastq] on
   x86); then one vector multiply-add per accumulator, which the compiler
   contracts to an FMA. So every element gets one FMA per k, in k order,
   from +0, and is added to C once at the end: bit for bit what
   {!loop_body} computes wherever the compiler fuses that nest's steps,
   on any data. The end de-interleaves each accumulator into its two
   columns of the transposed C tile.
   Only column pairs: with gcc 12, wider groups (4 or 8 columns per
   vector, for mr = lanes/4 or lanes/8) and 8-byte float vectors go
   through a stack round-trip per k and ran 1.9–14× slower than the
   loop nest. *)
let paired_body (b : Buffer.t) ~(lanes : int) ~(mr : int) ~(nr : int) : unit =
  let bf fmt = Printf.bprintf b fmt in
  let list n f = String.concat ", " (List.init n f) in
  let pairs = nr / 2 in
  bf "  typedef float vacc __attribute__((vector_size(%d)));\n" (4 * lanes);
  bf "  typedef uint64_t vpair __attribute__((vector_size(%d)));\n" (4 * lanes);
  bf "  typedef float va __attribute__((vector_size(%d)));\n" (4 * mr);
  bf "  vacc acc[%d];\n" pairs;
  for p = 0 to pairs - 1 do
    bf "  acc[%d] = (vacc){0};\n" p
  done;
  bf "  for (int k = 0; k < kc; k++) {\n";
  bf "    va a;\n";
  bf "    __builtin_memcpy(&a, A + (ptrdiff_t)k * %d, sizeof a);\n" mr;
  bf "    const vacc ai = __builtin_shufflevector(a, a, %s);\n"
    (list lanes (fun l -> string_of_int (l / 2)));
  bf "    const float *restrict bp = B + (ptrdiff_t)k * %d;\n" nr;
  bf "    uint64_t bq;\n";
  for p = 0 to pairs - 1 do
    bf "    __builtin_memcpy(&bq, bp + %d, sizeof bq);\n" (2 * p);
    bf "    acc[%d] += ai * (vacc)(vpair){%s};\n" p
      (list (lanes / 2) (fun _ -> "bq"))
  done;
  bf "  }\n";
  for p = 0 to pairs - 1 do
    for e = 0 to 1 do
      let c = ((2 * p) + e) * mr in
      bf "  {\n    va c;\n";
      bf "    __builtin_memcpy(&c, C + %d, sizeof c);\n" c;
      bf "    c += __builtin_shufflevector(acc[%d], acc[%d], %s);\n" p p
        (list mr (fun i -> string_of_int ((2 * i) + e)));
      bf "    __builtin_memcpy(C + %d, &c, sizeof c);\n  }\n" c
    done
  done

let portable_body (b : Buffer.t) ~(lanes : int) ~(mr : int) ~(nr : int) : unit
    =
  if paired_form ~lanes ~mr ~nr then paired_body b ~lanes ~mr ~nr
  else loop_body b ~mr ~nr

let pair_sym ~(mr : int) ~(nr : int) : string = native_sym ~mr ~nr ^ "_x2"

(* Two vertically adjacent tiles of a {!paired_form} shape in one call:
   A panels at A and A + kc·mr (the packer's layout), C tiles at C and
   C + mr·nr (the accumulator's). Accumulator j holds column j of both
   tiles, lanes 0..mr-1 the first tile's and mr..2·mr-1 the second's, so
   there are nr independent FMA chains instead of nr/2. Per k, the two
   A loads are joined by one shuffle and each B value is a scalar the
   compiler broadcasts into the multiply-add (gcc 12 at -march=native on
   AVX-512: 2 ymm loads, 1 vshuff32x4 and 12 vfmadd231ps with {1to16} for
   8×12). Every element still gets one FMA per k, in k order, from +0,
   and is added to C once: bit for bit two {!paired_body} calls. *)
let pair_body (b : Buffer.t) ~(lanes : int) ~(mr : int) ~(nr : int) : unit =
  let bf fmt = Printf.bprintf b fmt in
  let list n f = String.concat ", " (List.init n f) in
  bf "  typedef float vacc __attribute__((vector_size(%d)));\n" (4 * lanes);
  bf "  typedef float va __attribute__((vector_size(%d)));\n" (4 * mr);
  bf "  vacc acc[%d];\n" nr;
  for j = 0 to nr - 1 do
    bf "  acc[%d] = (vacc){0};\n" j
  done;
  bf "  for (int k = 0; k < kc; k++) {\n";
  bf "    va a0, a1;\n";
  bf "    __builtin_memcpy(&a0, A + (ptrdiff_t)k * %d, sizeof a0);\n" mr;
  bf "    __builtin_memcpy(&a1, A + ((ptrdiff_t)kc + k) * %d, sizeof a1);\n" mr;
  bf "    const vacc a = __builtin_shufflevector(a0, a1, %s);\n"
    (list lanes string_of_int);
  bf "    const float *restrict bp = B + (ptrdiff_t)k * %d;\n" nr;
  for j = 0 to nr - 1 do
    bf "    acc[%d] += a * bp[%d];\n" j j
  done;
  bf "  }\n";
  for t = 0 to 1 do
    for j = 0 to nr - 1 do
      let c = (t * mr * nr) + (j * mr) in
      bf "  {\n    va c;\n";
      bf "    __builtin_memcpy(&c, C + %d, sizeof c);\n" c;
      bf "    c += __builtin_shufflevector(acc[%d], acc[%d], %s);\n" j j
        (list mr (fun i -> string_of_int ((t * mr) + i)));
      bf "    __builtin_memcpy(C + %d, &c, sizeof c);\n  }\n" c
    done
  done

(** One native-ABI compilation unit for a whole kernel bank: an exported
    [exo_ukr_<mr>x<nr>] per kernel, each with exactly one body. Under
    [Nat_intrinsics] each scheduled proc is emitted [static] (its
    intrinsics body, as {!proc_to_c} renders it) behind a wrapper that
    only calls it; a proc the emitter rejects (not fully vectorized —
    fringe shapes) gets the portable nest instead. Under [Nat_portable]
    every kernel is the portable nest. [pair] adds the two-tile
    [exo_ukr_<mr>x<nr>_x2] entry of that shape, which must be paired. *)
let native_unit ?(header_comment = "") ?pair ~(target : native_target)
    ~(lanes : int) ~(kernels : (int * int * proc option) list) () : string =
  let b = Buffer.create 8192 in
  if header_comment <> "" then
    String.split_on_char '\n' header_comment
    |> List.iter (fun line -> Buffer.add_string b (Fmt.str "// %s\n" line));
  let procs =
    match target with
    | Nat_portable -> []
    | Nat_intrinsics -> List.filter_map (fun (_, _, p) -> p) kernels
  in
  let includes = List.sort_uniq compare (List.concat_map includes_of procs) in
  Buffer.add_string b
    "#include <stddef.h>\n#include <stdint.h>\n#include <stdbool.h>\n";
  List.iter (fun h -> Buffer.add_string b (Fmt.str "#include <%s>\n" h)) includes;
  Buffer.add_char b '\n';
  List.iter
    (fun (mr, nr, proc) ->
      let inner =
        match (target, proc) with
        | Nat_intrinsics, Some p -> (
            try Some (proc_to_c p, p.p_name) with Codegen_error _ -> None)
        | _ -> None
      in
      (match inner with
      | Some (code, _) ->
          Buffer.add_string b "static ";
          Buffer.add_string b code;
          Buffer.add_char b '\n'
      | None -> ());
      Buffer.add_string b (native_abi_signature (native_sym ~mr ~nr));
      Buffer.add_string b "\n{\n";
      (match inner with
      | Some (_, pname) ->
          Buffer.add_string b
            (Fmt.str "  float one = 1.0f;\n  %s(kc, &one, A, B, &one, C);\n"
               pname)
      | None -> portable_body b ~lanes ~mr ~nr);
      Buffer.add_string b "}\n\n")
    kernels;
  Option.iter
    (fun (mr, nr) ->
      if not (paired_form ~lanes ~mr ~nr) then
        invalid_arg "C_emit.native_unit: pair of a shape that is not paired";
      Buffer.add_string b (native_abi_signature (pair_sym ~mr ~nr));
      Buffer.add_string b "\n{\n";
      pair_body b ~lanes ~mr ~nr;
      Buffer.add_string b "}\n\n")
    pair;
  Buffer.contents b

(** Render the matching header file. *)
let header ?(guard = "EXO_UKR_GENERATED_H") (procs : proc list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Fmt.str "#ifndef %s\n#define %s\n\n" guard guard);
  Buffer.add_string b "#include <stdint.h>\n#include <stdbool.h>\n\n";
  List.iter
    (fun p ->
      let ctx = { names = mk_names (); bufs = collect_buffers p } in
      Buffer.add_string b (signature ctx p);
      Buffer.add_string b ";\n")
    procs;
  Buffer.add_string b (Fmt.str "\n#endif // %s\n" guard);
  Buffer.contents b
