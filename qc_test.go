package qc

import (
	"reflect"
	"strings"
	"testing"
)

func openSmall(t *testing.T) *DB {
	t.Helper()
	db, err := Open(qcOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func qcOpts() []Option { return []Option{WithMemoryMB(256)} }

func loadProducts(t *testing.T, db *DB) {
	t.Helper()
	tb, err := db.CreateTable("products", 4,
		Column{Name: "id", Type: Int64},
		Column{Name: "name", Type: Text},
		Column{Name: "price", Type: Decimal},
		Column{Name: "qty", Type: Int32},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id    int64
		name  string
		price int64
		qty   int64
	}{
		{1, "apple", 100, 10}, {2, "banana", 50, 20},
		{3, "cherry", 300, 5}, {4, "durian", 900, 1},
	}
	for _, r := range rows {
		if err := tb.Append(r.id, r.name, DecFromInt(r.price), r.qty); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecBasicSQL(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	res, err := db.Exec("SELECT name, price FROM products WHERE qty > 4 ORDER BY price DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"cherry", "300"}, {"apple", "100"}, {"banana", "50"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
	if res.Stats.CompileTime <= 0 || res.Stats.Functions == 0 {
		t.Errorf("missing stats: %+v", res.Stats)
	}
}

func TestExecAggregates(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	res, err := db.Exec("SELECT COUNT(*) AS n, SUM(price) AS total FROM products")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "4" || res.Rows[0][1] != "1350" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecGroupByHaving(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	res, err := db.Exec(`
		SELECT qty, COUNT(*) AS n FROM products
		GROUP BY qty HAVING n > 0 ORDER BY qty`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecEveryEngineAgrees(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	q := "SELECT name FROM products WHERE price BETWEEN 0.60 AND 9.50 ORDER BY name"
	var ref [][]string
	for _, e := range Engines() {
		res, err := db.ExecWith(e, q)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if ref == nil {
			ref = res.Rows
			continue
		}
		if !reflect.DeepEqual(res.Rows, ref) {
			t.Errorf("%s disagrees: %v vs %v", e, res.Rows, ref)
		}
	}
	// Decimal literals scale by 100: 0.60..9.50 → 60..950 cents.
	if len(ref) != 3 {
		t.Errorf("expected apple, cherry, durian; got %v", ref)
	}
}

func TestExecJoin(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	cat, err := db.CreateTable("categories", 4,
		Column{Name: "pid", Type: Int64},
		Column{Name: "cat", Type: Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []string{"fruit", "fruit", "fruit", "exotic"} {
		if err := cat.Append(int64(i+1), c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`
		SELECT cat, COUNT(*) AS n, SUM(price) AS total
		FROM products JOIN categories ON id = pid
		GROUP BY cat ORDER BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"exotic", "1", "900"}, {"fruit", "3", "450"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

func TestSQLErrors(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	for _, bad := range []string{
		"SELECT nosuch FROM products",
		"SELECT name FROM nosuchtable",
		"SELECT name FROM products WHERE name > 3",
		"SELECT FROM products",
		"SELECT name FROM products LIMIT banana",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
	if _, err := db.ExecWith("no-such-engine", "SELECT 1 FROM products"); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("expected unknown engine error, got %v", err)
	}
}

// TestExecStarAggregateIsError: an aggregate other than COUNT over * used to
// crash the parser (nil argument type) inside Exec; it must come back as an
// error.
func TestExecStarAggregateIsError(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	for _, bad := range []string{
		"select 1,sum(*) from products",
		"SELECT AVG(*) FROM products",
		"SELECT name, MAX(*) FROM products GROUP BY name",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%q: Exec panicked: %v", bad, r)
				}
			}()
			if _, err := db.Exec(bad); err == nil {
				t.Errorf("no error for %q", bad)
			}
		}()
	}
	res, err := db.Exec("SELECT COUNT(*) FROM products")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"4"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("COUNT(*) rows = %v, want %v", res.Rows, want)
	}
}

func TestLoadWorkloads(t *testing.T) {
	db := openSmall(t)
	if err := db.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == "0" {
		t.Error("lineitem empty")
	}

	db2 := openSmall(t)
	if err := db2.LoadTPCDS(0.01); err != nil {
		t.Fatal(err)
	}
	res, err = db2.Exec("SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == "0" {
		t.Error("store_sales empty")
	}
}

func TestTableAppendErrors(t *testing.T) {
	db := openSmall(t)
	tb, err := db.CreateTable("t", 1, Column{Name: "a", Type: Int64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append("not an int"); err == nil {
		t.Error("expected type error")
	}
	if err := tb.Append(int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(int64(2)); err == nil {
		t.Error("expected table-full error")
	}
}

func TestArchVA64(t *testing.T) {
	db, err := Open(WithArch(VA64), WithMemoryMB(256))
	if err != nil {
		t.Fatal(err)
	}
	loadProductsAny(t, db)
	// DirectEmit/adaptive are vx64-only; default must have fallen back.
	res, err := db.Exec("SELECT COUNT(*) FROM products")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "4" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := db.ExecWith("directemit", "SELECT COUNT(*) FROM products"); err == nil {
		t.Error("directemit should fail on va64")
	}
}

func loadProductsAny(t *testing.T, db *DB) {
	t.Helper()
	loadProducts(t, db)
}
