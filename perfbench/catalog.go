package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"colorfulxml/colorful"
)

// The catalog of the two durable workloads: a red catalog of named items;
// every third item is also adopted under the green featured root and given
// a green votes counter. Item i is named "Item i"; its votes text is "i.s"
// where s counts the writes to it, so every vote value names its item.

// lookupQuery is the point lookup of one item by name.
func lookupQuery(name string) string {
	return fmt.Sprintf(`document("db")/{red}descendant::item[{red}child::name = "%s"]/{red}child::name`, name)
}

// votesQuery navigates the green hierarchy to every featured item's votes.
const votesQuery = `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`

// scanQuery is the red full scan of every item's name.
const scanQuery = `document("db")/{red}descendant::item/{red}child::name`

// catalogRoots creates the red catalog and green featured roots.
func catalogRoots(db *colorful.DB) (root, featured *colorful.Node, err error) {
	if root, err = db.AddElement(db.Document(), "catalog", "red"); err != nil {
		return nil, nil, err
	}
	if featured, err = db.AddElement(db.Document(), "featured", "green"); err != nil {
		return nil, nil, err
	}
	return root, featured, nil
}

// addItem writes item i with the mutator calls of the repository's own
// catalog builder, one commit each. commit, when non-nil, wraps every
// mutator call (the traced run times them).
func addItem(db *colorful.DB, root, featured *colorful.Node, i int, commit func(func() error) error) error {
	if commit == nil {
		commit = func(f func() error) error { return f() }
	}
	var item *colorful.Node
	if err := commit(func() (err error) {
		item, err = db.AddElement(root, "item", "red")
		return err
	}); err != nil {
		return err
	}
	if err := commit(func() error {
		_, err := db.AddElementText(item, "name", "red", itemName(i))
		return err
	}); err != nil {
		return err
	}
	if i%3 != 0 {
		return nil
	}
	if err := commit(func() error { return db.Adopt(featured, item, "green") }); err != nil {
		return err
	}
	return commit(func() error {
		_, err := db.AddElementText(item, "votes", "green", voteValue(i, 0))
		return err
	})
}

// itemValues returns the text values of a query's items.
func itemValues(items []colorful.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies a database directory of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
