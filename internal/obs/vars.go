package obs

import (
	"fmt"
	"io"
	"reflect"
)

// WriteVars renders snap, a flat snapshot struct, in the shared text
// exposition: one `<prefix>_<key> <value>` line per field, in field
// order, where key is the field's `varz:"…"` tag. Integers (so also
// time.Duration, in nanoseconds: name such keys `_ns`) render as %d,
// float64 as %.2f and strings as they are, so the output is
// deterministic for fixed values and golden tests can pin it. A field
// with no tag or of another kind is a bug in the snapshot type, and
// panics. Reflection costs nothing that matters at scrape cadence.
func WriteVars(w io.Writer, prefix string, snap any) {
	v := reflect.ValueOf(snap)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key, ok := f.Tag.Lookup("varz")
		if !ok {
			panic(fmt.Sprintf("obs: %s.%s has no varz tag", t, f.Name))
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(w, "%s_%s %d\n", prefix, key, fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(w, "%s_%s %d\n", prefix, key, fv.Uint())
		case reflect.Float64:
			fmt.Fprintf(w, "%s_%s %.2f\n", prefix, key, fv.Float())
		case reflect.String:
			fmt.Fprintf(w, "%s_%s %s\n", prefix, key, fv.String())
		default:
			panic(fmt.Sprintf("obs: %s.%s is a %s, which /varz cannot render", t, f.Name, fv.Kind()))
		}
	}
}
