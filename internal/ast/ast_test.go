package ast

import (
	"testing"

	"repro/internal/source"
	"repro/internal/token"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		ty   Type
		size int
		str  string
	}{
		{IntType, 4, "int"},
		{FloatType, 4, "float"},
		{VoidType, 0, "void"},
		{&PointerType{Elem: IntType}, 4, "int*"},
		{&ArrayType{Elem: IntType, Len: 10}, 40, "int[10]"},
		{&ArrayType{Elem: FloatType, Len: 3}, 12, "float[3]"},
		{&PointerType{Elem: &PointerType{Elem: FloatType}}, 4, "float**"},
	}
	for _, c := range cases {
		if c.ty.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.str, c.ty.Size(), c.size)
		}
		if c.ty.String() != c.str {
			t.Errorf("type string = %q, want %q", c.ty.String(), c.str)
		}
	}
}

func TestSameType(t *testing.T) {
	if !SameType(IntType, &BasicType{Int}) {
		t.Error("structural equality for basics")
	}
	if SameType(IntType, FloatType) {
		t.Error("int != float")
	}
	if !SameType(&PointerType{Elem: IntType}, &PointerType{Elem: IntType}) {
		t.Error("pointer equality")
	}
	if SameType(&ArrayType{Elem: IntType, Len: 3}, &ArrayType{Elem: IntType, Len: 4}) {
		t.Error("array lengths matter")
	}
}

func TestTypePredicates(t *testing.T) {
	if !IsArith(IntType) || !IsArith(FloatType) || IsArith(VoidType) {
		t.Error("IsArith")
	}
	if !IsInt(IntType) || IsInt(FloatType) {
		t.Error("IsInt")
	}
	if !IsFloat(FloatType) || IsFloat(IntType) {
		t.Error("IsFloat")
	}
	if IsArith(&PointerType{Elem: IntType}) {
		t.Error("pointers are not arithmetic")
	}
}

// buildTestFunc constructs a tiny function AST by hand:
//
//	func f() { s0: x=1; s1: if c { s2: y=2 } else { s3: z=3 }; s4: for(init s5; ...) { s6 } }
func buildTestFunc() *FuncDecl {
	noSpan := source.Span{Start: source.NoPos, End: source.NoPos}
	mk := func(id int) Stmt {
		s := &AssignStmt{Op: token.ASSIGN,
			LHS: NewIdent("x", noSpan), RHS: NewIntLit(1, noSpan)}
		s.SetID(id)
		return s
	}
	ifStmt := &IfStmt{
		Cond: NewIntLit(1, noSpan),
		Then: NewBlock([]Stmt{mk(2)}, noSpan),
		Else: NewBlock([]Stmt{mk(3)}, noSpan),
	}
	ifStmt.SetID(1)
	forStmt := &ForStmt{
		Init: mk(5),
		Body: NewBlock([]Stmt{mk(6)}, noSpan),
	}
	forStmt.SetID(4)
	body := NewBlock([]Stmt{mk(0), ifStmt, forStmt}, noSpan)
	return &FuncDecl{Name: "f", Ret: IntType, Body: body, NumStmts: 7}
}

func TestWalkStmtsVisitsAll(t *testing.T) {
	f := buildTestFunc()
	var ids []int
	WalkStmts(f, func(s Stmt) { ids = append(ids, s.ID()) })
	want := []int{0, 1, 2, 3, 4, 5, 6}
	if len(ids) != len(want) {
		t.Fatalf("visited %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("visit order %v, want %v", ids, want)
			break
		}
	}
}

func TestStmtsByID(t *testing.T) {
	f := buildTestFunc()
	byID := StmtsByID(f)
	if len(byID) != 7 {
		t.Fatalf("len = %d", len(byID))
	}
	for id, s := range byID {
		if s == nil {
			t.Errorf("missing statement %d", id)
			continue
		}
		if s.ID() != id {
			t.Errorf("slot %d holds statement %d", id, s.ID())
		}
	}
}

func TestObjectHelpers(t *testing.T) {
	v := &Object{Name: "x", Kind: ObjLocal, Type: IntType}
	fn := &Object{Name: "f", Kind: ObjFunc, Type: IntType}
	if !v.IsVar() || fn.IsVar() {
		t.Error("IsVar")
	}
	if v.String() != "x" {
		t.Error("String")
	}
}
